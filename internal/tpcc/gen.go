package tpcc

import (
	"fmt"
	"math/rand"

	"specdb/internal/msg"
	"specdb/internal/storage"
	"specdb/internal/txn"
	"specdb/internal/workload"
)

// Scale controls population sizes. Full is the TPC-C specification; smaller
// scales preserve the contention structure (which lives in the warehouse and
// district rows) while keeping simulation runs fast.
type Scale struct {
	Items             int
	StockPerWarehouse int
	CustomersPerDist  int
	InitialOrders     int // pre-loaded orders per district
}

// DefaultScale is the simulation default.
func DefaultScale() Scale {
	return Scale{Items: 1000, StockPerWarehouse: 1000, CustomersPerDist: 120, InitialOrders: 30}
}

// lastNameSyllables is the TPC-C last-name generator table (clause 4.3.2.3).
var lastNameSyllables = [10]string{
	"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING",
}

// lastNames interns all 1000 last names. Payment and OrderStatus format a
// name on 60% of issues (clause 2.5.1.2), which made LastName's string
// concatenation a per-invocation allocation on the generation hot path.
var lastNames = func() (names [1000]string) {
	for n := range names {
		names[n] = lastNameSyllables[n/100] + lastNameSyllables[(n/10)%10] + lastNameSyllables[n%10]
	}
	return
}()

// LastName returns the deterministic TPC-C last name for a number in 0..999.
func LastName(num int) string {
	return lastNames[num]
}

// nuRand constants (clause 2.1.6). C values are fixed per run for
// determinism; the spec only requires they be constant within a run.
const (
	cLast  = 123
	cCID   = 259
	cOLIID = 4171
)

// nuRand is the TPC-C non-uniform random distribution NURand(A, x, y).
func nuRand(rng *rand.Rand, a, c, x, y int) int {
	return (((rng.Intn(a+1) | (x + rng.Intn(y-x+1))) + c) % (y - x + 1)) + x
}

// Loader populates partitions deterministically.
type Loader struct {
	Layout Layout
	Scale  Scale
	Seed   int64
}

// Load installs schema and populates partition p's share of the database:
// its warehouses' rows plus the replicated ITEM and STOCK_INFO tables.
func (ld Loader) Load(p msg.PartitionID, s *storage.Store) {
	AddSchema(s)
	rng := rand.New(rand.NewSource(ld.Seed + 7))
	// Replicated tables are identical everywhere, so they are generated
	// from a fixed stream independent of p.
	for i := 1; i <= ld.Scale.Items; i++ {
		s.Table(TItem).Put(ItemKey(i), &Item{
			ID:    i,
			Name:  fmt.Sprintf("item-%d", i),
			Price: 1 + float64(rng.Intn(9900))/100,
			Data:  genData(rng),
		})
	}
	for w := 1; w <= ld.Layout.Warehouses; w++ {
		for i := 1; i <= ld.Scale.StockPerWarehouse; i++ {
			si := &StockInfo{IID: i, WID: w, Data: genData(rng)}
			for d := 0; d < DistrictsPerWarehouse; d++ {
				si.Dists[d] = fmt.Sprintf("dist-%d-%d-%d", w, i, d+1)
			}
			s.Table(TStockInfo).Put(StockKey(w, i), si)
		}
	}
	// Home rows for this partition's warehouses.
	for _, w := range ld.Layout.WarehousesOn(p) {
		wrng := rand.New(rand.NewSource(ld.Seed + int64(w)*1_000_003))
		ld.loadWarehouse(s, w, wrng)
	}
}

func genData(rng *rand.Rand) string {
	if rng.Intn(10) == 0 {
		return "ORIGINAL"
	}
	return "generic"
}

func (ld Loader) loadWarehouse(s *storage.Store, w int, rng *rand.Rand) {
	// W_YTD starts equal to the sum of its districts' D_YTD (consistency
	// condition 1 of TPC-C clause 3.3.2).
	s.Table(TWarehouse).Put(WarehouseKey(w), &Warehouse{
		ID:   w,
		Name: fmt.Sprintf("wh-%d", w),
		Tax:  float64(rng.Intn(2000)) / 10000,
		YTD:  30000 * DistrictsPerWarehouse,
	})
	for i := 1; i <= ld.Scale.StockPerWarehouse; i++ {
		s.Table(TStock).Put(StockKey(w, i), &Stock{
			IID: i, WID: w, Quantity: 10 + rng.Intn(91),
		})
	}
	for d := 1; d <= DistrictsPerWarehouse; d++ {
		nextOID := ld.Scale.InitialOrders + 1
		s.Table(TDistrict).Put(DistrictKey(w, d), &District{
			ID: d, WID: w,
			Name:    fmt.Sprintf("dist-%d-%d", w, d),
			Tax:     float64(rng.Intn(2000)) / 10000,
			YTD:     30000,
			NextOID: nextOID,
		})
		for c := 1; c <= ld.Scale.CustomersPerDist; c++ {
			credit := "GC"
			if rng.Intn(10) == 0 {
				credit = "BC"
			}
			// The spec maps the first 1000 customers through the
			// name generator; beyond that it hashes NURand.
			nameNum := c - 1
			if nameNum >= 1000 {
				nameNum = nuRand(rng, 255, cLast, 0, 999)
			}
			cust := &Customer{
				ID: c, DID: d, WID: w,
				First:    fmt.Sprintf("first-%d", c),
				Last:     LastName(nameNum),
				Credit:   credit,
				Discount: float64(rng.Intn(5000)) / 10000,
				Balance:  -10,
			}
			s.Table(TCustomer).Put(CustomerKey(w, d, c), cust)
			s.Table(TCustName).Put(CustNameKey(w, d, cust.Last, c), c)
		}
		// Pre-loaded orders: the most recent 30% are undelivered.
		for o := 1; o <= ld.Scale.InitialOrders; o++ {
			cid := 1 + rng.Intn(ld.Scale.CustomersPerDist)
			olCnt := 5 + rng.Intn(11)
			delivered := o <= ld.Scale.InitialOrders*7/10
			carrier := 0
			if delivered {
				carrier = 1 + rng.Intn(10)
			}
			s.Table(TOrder).Put(OrderKey(w, d, o), &Order{
				ID: o, DID: d, WID: w, CID: cid,
				CarrierID: carrier, OLCnt: olCnt, AllLocal: true,
			})
			s.Table(TOrderCust).Put(OrderCustKey(w, d, cid, o), o)
			if !delivered {
				s.Table(TNewOrder).Put(NewOrderKey(w, d, o), &NewOrderRow{OID: o, DID: d, WID: w})
			}
			for n := 1; n <= olCnt; n++ {
				iid := 1 + rng.Intn(ld.Scale.Items)
				amount := 0.0
				deliveryD := int64(0)
				if delivered {
					amount = float64(1+rng.Intn(9999)) / 100
					deliveryD = 1
				}
				s.Table(TOrderLine).Put(OrderLineKey(w, d, o, n), &OrderLine{
					OID: o, DID: d, WID: w, Number: n,
					IID: iid, SupplyWID: w, Qty: 5,
					Amount: amount, DistInfo: fmt.Sprintf("dist-%d-%d-%d", w, iid, d),
					DeliveryD: deliveryD,
				})
			}
		}
	}
}

// Mix generates the five-transaction TPC-C workload. Per §5.5's methodology:
// clients are assigned a warehouse (round-robin) but pick a random district
// on every request, and have no think time.
type Mix struct {
	Layout Layout
	Scale  Scale
	// RemoteItemProb is the per-item probability that a NewOrder line is
	// supplied by a remote warehouse (TPC-C default 0.01; the x-axis knob
	// of Figure 9).
	RemoteItemProb float64
	// RemotePaymentProb is the probability a Payment pays a customer of a
	// remote warehouse (TPC-C default 0.15).
	RemotePaymentProb float64
	// RemoteSkew, when in (0,1), draws the remote warehouse (NewOrder
	// supply lines and Payment customer warehouses) from a Zipfian over
	// the other warehouses in index order — warehouse 1 (or 2, from
	// warehouse 1's view) is the hottest remote partner — instead of
	// uniformly. This is the hot-partition knob for TPC-C: skewed remote
	// choice concentrates multi-partition traffic on the partitions owning
	// the low-numbered warehouses.
	RemoteSkew float64
	// NewOrderOnly issues 100% NewOrder transactions (§5.6).
	NewOrderOnly bool
	// clock provides order entry timestamps; it only needs to be unique
	// per generator, not synchronized.
	clock int64
	// perClient reuses each client's Invocation shell across issues (the
	// closed-loop ownership contract of workload.Generator). Unlike the
	// microbenchmark, the Args must stay freshly allocated: TPC-C fragment
	// works alias their args (noHomeWork.A and friends), works are forwarded
	// to replicas, and a backup applies a buffered multi-partition forward
	// when its decision arrives — possibly after the client has already
	// issued its next transaction. SetShape switches even the shell to
	// fresh allocation when an open-loop window lets one client hold
	// several invocations in flight.
	perClient  []*txn.Invocation
	fresh      bool
	remoteZipf *workload.Zipf
}

// SetShape implements workload.ShapeAware: shells cannot be reused when a
// client may hold more than one invocation in flight.
func (m *Mix) SetShape(s workload.Shape) {
	m.fresh = s.MaxInFlight > 1
}

// inv returns client ci's reusable invocation shell (or a fresh one when
// reuse is unsafe; see SetShape).
func (m *Mix) inv(ci int) *txn.Invocation {
	if m.fresh {
		return &txn.Invocation{}
	}
	for ci >= len(m.perClient) {
		m.perClient = append(m.perClient, nil)
	}
	if m.perClient[ci] == nil {
		m.perClient[ci] = &txn.Invocation{}
	}
	return m.perClient[ci]
}

// Standard mix weights (TPC-C clause 5.2.3 steady state).
const (
	weightNewOrder    = 0.45
	weightPayment     = 0.43
	weightOrderStatus = 0.04
	weightDelivery    = 0.04
	weightStockLevel  = 0.04
)

// Next implements workload.Generator. The returned Invocation is client
// ci's reused shell — valid until the client's next call, per the Generator
// contract; its Args are freshly built (see perClient).
func (m *Mix) Next(ci int, rng *rand.Rand) *txn.Invocation {
	w := (ci % m.Layout.Warehouses) + 1
	m.clock++
	inv := m.inv(ci)
	inv.AbortAt = txn.NoAbort
	if m.NewOrderOnly {
		return m.newOrder(inv, w, rng)
	}
	x := rng.Float64()
	switch {
	case x < weightNewOrder:
		return m.newOrder(inv, w, rng)
	case x < weightNewOrder+weightPayment:
		return m.payment(inv, w, rng)
	case x < weightNewOrder+weightPayment+weightOrderStatus:
		return m.orderStatus(inv, w, rng)
	case x < weightNewOrder+weightPayment+weightOrderStatus+weightDelivery:
		return m.delivery(inv, w, rng)
	default:
		return m.stockLevel(inv, w, rng)
	}
}

func (m *Mix) district(rng *rand.Rand) int { return 1 + rng.Intn(DistrictsPerWarehouse) }

func (m *Mix) customerID(rng *rand.Rand) int {
	max := m.Scale.CustomersPerDist
	if max > 1024 {
		return nuRand(rng, 1023, cCID, 1, max)
	}
	return 1 + rng.Intn(max)
}

func (m *Mix) itemID(rng *rand.Rand) int {
	max := m.Scale.Items
	if max > 8192 {
		return nuRand(rng, 8191, cOLIID, 1, max)
	}
	return 1 + rng.Intn(max)
}

func (m *Mix) remoteWarehouse(rng *rand.Rand, home int) int {
	if m.Layout.Warehouses == 1 {
		return home
	}
	var w int
	if m.RemoteSkew > 0 {
		if m.remoteZipf == nil {
			m.remoteZipf = workload.NewZipf(m.Layout.Warehouses-1, m.RemoteSkew)
		}
		w = 1 + m.remoteZipf.Sample(rng)
	} else {
		w = 1 + rng.Intn(m.Layout.Warehouses-1)
	}
	if w >= home {
		w++
	}
	return w
}

func (m *Mix) newOrder(inv *txn.Invocation, w int, rng *rand.Rand) *txn.Invocation {
	nItems := 5 + rng.Intn(11)
	lines := make([]NewOrderLine, nItems)
	for i := range lines {
		supply := w
		if m.RemoteItemProb > 0 && rng.Float64() < m.RemoteItemProb {
			supply = m.remoteWarehouse(rng, w)
		}
		lines[i] = NewOrderLine{
			IID:       m.itemID(rng),
			SupplyWID: supply,
			Qty:       1 + rng.Intn(10),
		}
	}
	// TPC-C clause 2.4.1.4: 1% of NewOrders carry an unused item number
	// and abort at the home warehouse after validation.
	if rng.Intn(100) == 0 {
		lines[nItems-1].IID = m.Scale.Items + 1
	}
	inv.Proc = ProcNewOrder
	inv.Args = &NewOrderArgs{
		WID: w, DID: m.district(rng), CID: m.customerID(rng),
		Lines: lines, EntryD: m.clock,
	}
	return inv
}

func (m *Mix) payment(inv *txn.Invocation, w int, rng *rand.Rand) *txn.Invocation {
	cw, cd := w, m.district(rng)
	if m.RemotePaymentProb > 0 && rng.Float64() < m.RemotePaymentProb {
		cw = m.remoteWarehouse(rng, w)
	}
	args := &PaymentArgs{
		WID: w, DID: m.district(rng),
		CWID: cw, CDID: cd,
		Amount: 1 + float64(rng.Intn(499999))/100,
		When:   m.clock,
	}
	// Clause 2.5.1.2: 60% select the customer by last name.
	if rng.Intn(100) < 60 {
		args.CLast = LastName(m.nameNum(rng))
	} else {
		args.CID = m.customerID(rng)
	}
	inv.Proc = ProcPayment
	inv.Args = args
	return inv
}

func (m *Mix) nameNum(rng *rand.Rand) int {
	limit := m.Scale.CustomersPerDist
	if limit > 1000 {
		limit = 1000
	}
	return nuRand(rng, 255, cLast, 0, limit-1)
}

func (m *Mix) orderStatus(inv *txn.Invocation, w int, rng *rand.Rand) *txn.Invocation {
	args := &OrderStatusArgs{WID: w, DID: m.district(rng)}
	if rng.Intn(100) < 60 {
		args.CLast = LastName(m.nameNum(rng))
	} else {
		args.CID = m.customerID(rng)
	}
	inv.Proc = ProcOrderStatus
	inv.Args = args
	return inv
}

func (m *Mix) delivery(inv *txn.Invocation, w int, rng *rand.Rand) *txn.Invocation {
	inv.Proc = ProcDelivery
	inv.Args = &DeliveryArgs{WID: w, CarrierID: 1 + rng.Intn(10), When: m.clock}
	return inv
}

func (m *Mix) stockLevel(inv *txn.Invocation, w int, rng *rand.Rand) *txn.Invocation {
	inv.Proc = ProcStockLevel
	inv.Args = &StockLevelArgs{WID: w, DID: m.district(rng), Threshold: 10 + rng.Intn(11)}
	return inv
}

var _ workload.Generator = (*Mix)(nil)
