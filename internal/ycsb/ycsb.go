// Package ycsb generates YCSB-style workloads (Cooper et al., SoCC'10)
// — the key-value benchmark the Yesquel paper uses to compare against
// NOSQL systems. Workloads A–F are the standard mixes:
//
//	A  update heavy   50% read  / 50% update, zipfian
//	B  read mostly    95% read  /  5% update, zipfian
//	C  read only     100% read            , zipfian
//	D  read latest    95% read  /  5% insert, latest distribution
//	E  short ranges   95% scan  /  5% insert, zipfian, scans <= 100
//	F  read-mod-write 50% read  / 50% RMW  , zipfian
package ycsb

import (
	"fmt"
	"math"
	"math/rand"
)

// OpKind is one operation type in a workload mix.
type OpKind uint8

const (
	// OpRead reads one record by key.
	OpRead OpKind = iota
	// OpUpdate overwrites one field of one record.
	OpUpdate
	// OpInsert adds a new record.
	OpInsert
	// OpScan reads a short ordered range.
	OpScan
	// OpRMW reads a record then writes it back modified.
	OpRMW
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpUpdate:
		return "update"
	case OpInsert:
		return "insert"
	case OpScan:
		return "scan"
	case OpRMW:
		return "rmw"
	}
	return "?"
}

// Op is one generated operation.
type Op struct {
	Kind    OpKind
	Key     int64 // record number
	ScanLen int   // for OpScan
}

// Workload identifies one of the standard mixes.
type Workload byte

// Standard workloads.
const (
	WorkloadA Workload = 'A'
	WorkloadB Workload = 'B'
	WorkloadC Workload = 'C'
	WorkloadD Workload = 'D'
	WorkloadE Workload = 'E'
	WorkloadF Workload = 'F'
)

// KeyName formats a record number as its canonical key string.
func KeyName(n int64) string { return fmt.Sprintf("user%012d", n) }

// ValueSize is the payload size of one record field.
const ValueSize = 100

// Value deterministically generates record n's payload.
func Value(n int64) []byte {
	out := make([]byte, ValueSize)
	seed := uint64(n)*0x9e3779b97f4a7c15 + 1
	for i := range out {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		out[i] = 'a' + byte(seed%26)
	}
	return out
}

// Generator produces a stream of operations for one workload. Not safe
// for concurrent use; give each worker its own (with distinct seeds).
type Generator struct {
	kind    Workload
	rng     *rand.Rand
	zipf    *Zipfian
	records int64 // current record count (grows with inserts)
	maxScan int

	insertBase int64 // disjoint insert keyspace per worker
	inserted   int64
}

// SetInsertBase gives this generator a private keyspace for inserts so
// concurrent workers do not insert colliding keys. Keys are
// insertBase+0, insertBase+1, ...
func (g *Generator) SetInsertBase(base int64) { g.insertBase = base }

// NewGenerator returns a generator over an initial keyspace of
// recordCount records.
func NewGenerator(kind Workload, recordCount int64, seed int64) (*Generator, error) {
	if recordCount <= 0 {
		return nil, fmt.Errorf("ycsb: recordCount must be positive")
	}
	switch kind {
	case WorkloadA, WorkloadB, WorkloadC, WorkloadD, WorkloadE, WorkloadF:
	default:
		return nil, fmt.Errorf("ycsb: unknown workload %c", kind)
	}
	rng := rand.New(rand.NewSource(seed))
	return &Generator{
		kind:    kind,
		rng:     rng,
		zipf:    NewZipfian(rng, recordCount, DefaultTheta),
		records: recordCount,
		maxScan: 100,
	}, nil
}

// Records returns the current record count (initial + inserts).
func (g *Generator) Records() int64 { return g.records }

// Next returns the next operation.
func (g *Generator) Next() Op {
	p := g.rng.Float64()
	switch g.kind {
	case WorkloadA:
		if p < 0.5 {
			return Op{Kind: OpRead, Key: g.zipfKey()}
		}
		return Op{Kind: OpUpdate, Key: g.zipfKey()}
	case WorkloadB:
		if p < 0.95 {
			return Op{Kind: OpRead, Key: g.zipfKey()}
		}
		return Op{Kind: OpUpdate, Key: g.zipfKey()}
	case WorkloadC:
		return Op{Kind: OpRead, Key: g.zipfKey()}
	case WorkloadD:
		if p < 0.95 {
			return Op{Kind: OpRead, Key: g.latestKey()}
		}
		return g.insert()
	case WorkloadE:
		if p < 0.95 {
			return Op{Kind: OpScan, Key: g.zipfKey(), ScanLen: 1 + g.rng.Intn(g.maxScan)}
		}
		return g.insert()
	default: // F
		if p < 0.5 {
			return Op{Kind: OpRead, Key: g.zipfKey()}
		}
		return Op{Kind: OpRMW, Key: g.zipfKey()}
	}
}

func (g *Generator) insert() Op {
	var k int64
	if g.insertBase > 0 {
		k = g.insertBase + g.inserted
		g.inserted++
	} else {
		k = g.records
		g.records++
	}
	return Op{Kind: OpInsert, Key: k}
}

// zipfKey draws a zipfian-popular record, scattered over the keyspace
// (the standard YCSB hashing so popular records are not neighbours).
func (g *Generator) zipfKey() int64 {
	r := g.zipf.Next()
	return fnvScatter(r) % g.records
}

// latestKey draws keys skewed toward the most recently inserted.
func (g *Generator) latestKey() int64 {
	r := g.zipf.Next() // 0 is most popular
	k := g.records - 1 - r
	if k < 0 {
		k = 0
	}
	return k
}

func fnvScatter(n int64) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= uint64(n >> (8 * i) & 0xff)
		h *= 1099511628211
	}
	v := int64(h & math.MaxInt64)
	return v
}

// DefaultTheta is the standard YCSB zipfian constant.
const DefaultTheta = 0.99

// Zipfian draws integers in [0, n) with a zipfian distribution using
// the Gray et al. "quickly generating billion-record" method (the same
// algorithm YCSB uses).
type Zipfian struct {
	rng   *rand.Rand
	n     int64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	z2    float64
}

// NewZipfian returns a zipfian source over [0, n).
func NewZipfian(rng *rand.Rand, n int64, theta float64) *Zipfian {
	z := &Zipfian{rng: rng, n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.z2 = zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.z2/z.zetan)
	return z
}

func zeta(n int64, theta float64) float64 {
	sum := 0.0
	for i := int64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws the next value; rank 0 is the most popular.
func (z *Zipfian) Next() int64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	v := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}
