package workload

import (
	"math/rand"

	"repro/internal/tuple"
)

// This file is dbgen-lite: a TPC-H-shaped row generator sufficient to
// run the paper's continuous Q5 over a sliding window (§V, Fig. 16).
// The paper used DBGen with Zipf skew z = 0.8 injected on foreign keys;
// we generate the same schema relations with the same skew knob. Scale
// is expressed directly in row counts instead of the 1 GB scale factor.

// TPC-H Q5 touches region, nation, customer, supplier, orders and
// lineitem. Region/nation are tiny and static; customer and supplier
// are dimension tables; orders and lineitem are the streamed facts.

// Region names follow the spec; Q5 filters on one region.
var Regions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

// NationsPerRegion is 5 in TPC-H (25 nations across 5 regions).
const NationsPerRegion = 5

// Customer is a dimension row: customer c_custkey is
// TPCH.Customers[c_custkey-1], so the key itself is not stored.
type Customer struct {
	NationKey int
}

// Supplier is a dimension row, indexed as Customer is.
type Supplier struct {
	NationKey int
}

// Order is a streamed fact row. Its o_orderkey is the tuple's key, the
// join key Q5 partitions on.
type Order struct {
	CustKey int64
}

// Lineitem is a streamed fact row, keyed by its l_orderkey as Order is.
type Lineitem struct {
	SuppKey       int64
	ExtendedPrice float64
	Discount      float64
}

// TPCH generates the Q5 workload: interleaved order and lineitem
// tuples keyed by orderkey (the stateful windowed-join key), with
// Zipf-skewed orderkey popularity on the lineitem side, plus in-memory
// customer/supplier dimensions for the lookup stages.
type TPCH struct {
	rng       *rand.Rand
	Customers []Customer
	Suppliers []Supplier
	// orderDist skews which orders attract lineitems (z on the FK).
	orderDist *Zipf
	custDist  *Zipf
	suppDist  *Zipf
	// LineitemsPerOrder controls the fact-stream mix.
	LineitemsPerOrder int
	nextOrderKey      int64
	seq               uint64
	// liveOrders maps rank → orderkey so lineitem FKs reference real,
	// recently generated orders.
	liveOrders []int64
}

// TPCHConfig sizes the dbgen-lite run.
type TPCHConfig struct {
	Customers         int
	Suppliers         int
	OrderPool         int // number of live orders lineitems reference
	Z                 float64
	LineitemsPerOrder int
	Seed              int64
}

// DefaultTPCHConfig mirrors the paper's setup in spirit: 1 GB TPC-H is
// ~150k customers / 10k suppliers; we default to a laptop-scale pool
// with the same z = 0.8 FK skew.
func DefaultTPCHConfig() TPCHConfig {
	return TPCHConfig{Customers: 30000, Suppliers: 2000, OrderPool: 20000, Z: 0.8, LineitemsPerOrder: 4, Seed: 1}
}

// NewTPCH builds the generator and its dimension tables.
func NewTPCH(cfg TPCHConfig) *TPCH {
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &TPCH{
		rng:               rng,
		orderDist:         NewZipf(cfg.OrderPool, cfg.Z),
		custDist:          NewZipf(cfg.Customers, cfg.Z),
		suppDist:          NewZipf(cfg.Suppliers, cfg.Z),
		LineitemsPerOrder: cfg.LineitemsPerOrder,
		liveOrders:        make([]int64, cfg.OrderPool),
	}
	for i := 0; i < cfg.Customers; i++ {
		t.Customers = append(t.Customers, Customer{NationKey: rng.Intn(len(Regions) * NationsPerRegion)})
	}
	for i := 0; i < cfg.Suppliers; i++ {
		t.Suppliers = append(t.Suppliers, Supplier{NationKey: rng.Intn(len(Regions) * NationsPerRegion)})
	}
	for i := range t.liveOrders {
		t.liveOrders[i] = t.newOrderKey()
	}
	return t
}

func (t *TPCH) newOrderKey() int64 {
	t.nextOrderKey++
	return t.nextOrderKey
}

// NationOfCust resolves a customer's nation (the c ⋈ n lookup).
func (t *TPCH) NationOfCust(custKey int64) int {
	return t.Customers[(custKey-1)%int64(len(t.Customers))].NationKey
}

// NationOfSupp resolves a supplier's nation (the s ⋈ n lookup).
func (t *TPCH) NationOfSupp(suppKey int64) int {
	return t.Suppliers[(suppKey-1)%int64(len(t.Suppliers))].NationKey
}

// RegionOfNation resolves n_regionkey.
func RegionOfNation(nationKey int) int { return nationKey / NationsPerRegion }

// Advance moves the logical clock and recycles a slice of the order
// pool, shifting which orderkeys are hot — the distribution change the
// Fig. 16 experiment triggers every 15 minutes with f = 1.
func (t *TPCH) Advance() {
	// Recycle the hottest tenth of the pool so the hot join keys move.
	n := len(t.liveOrders) / 10
	for i := 0; i < n; i++ {
		t.liveOrders[t.rng.Intn(len(t.liveOrders))] = t.newOrderKey()
	}
	// Reshuffle rank→order mapping: abrupt change in FK popularity.
	t.rng.Shuffle(len(t.liveOrders), func(i, j int) {
		t.liveOrders[i], t.liveOrders[j] = t.liveOrders[j], t.liveOrders[i]
	})
}

// Next emits the next fact tuple: one order tuple followed by
// LineitemsPerOrder lineitem tuples per cycle, all keyed by orderkey so
// the windowed join partitions on the skewed FK. Lineitem tuples carry
// heavier state (they are wider rows buffered in the join window).
func (t *TPCH) Next() tuple.Tuple {
	t.seq++
	cycle := int(t.seq % uint64(1+t.LineitemsPerOrder))
	if cycle == 0 {
		rank := t.orderDist.Rank(t.rng)
		ok := t.liveOrders[rank-1]
		o := Order{CustKey: int64(t.custDist.Rank(t.rng))}
		tp := tuple.New(tuple.Key(ok), o)
		tp.Seq = t.seq
		return tp
	}
	rank := t.orderDist.Rank(t.rng)
	ok := t.liveOrders[rank-1]
	li := Lineitem{
		SuppKey:       int64(t.suppDist.Rank(t.rng)),
		ExtendedPrice: 100 + t.rng.Float64()*900,
		Discount:      t.rng.Float64() * 0.1,
	}
	tp := tuple.New(tuple.Key(ok), li)
	tp.Seq = t.seq
	tp.StateSize = 2 // lineitems are wider than orders in the window
	return tp
}
