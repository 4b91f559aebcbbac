module specdb/benchmark

go 1.24

require specdb v0.0.0

replace specdb => ../
