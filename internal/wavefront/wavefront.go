// Package wavefront implements the paper's hand-written Gauss-Seidel
// comparator (Fig. 3 / Appendix A.4) directly against the simulated
// machine: columns wrapped around a ring, old columns sent left one message
// per column, new values computed and communicated in blocks of blksize,
// pipelining the wavefront. This is the baseline the compiler-generated
// code is measured against in Figs. 6 and 7.
//
// Cost accounting follows the tariff internal/exec charges compiled code (one
// Mem per I-structure access plus a flat two-operation subscript charge, one
// Op per arithmetic operator, one LoopStep per iteration), so the comparison
// with compiled code is apples-to-apples.
package wavefront

import (
	"fmt"

	"procdecomp/internal/dist"
	"procdecomp/internal/istruct"
	"procdecomp/internal/machine"
)

const (
	tagOld int64 = iota + 1
	tagNew
)

// indexCost is the flat subscript charge, the same two operations
// internal/exec charges compiled code.
const indexCost = 2

// Result carries the gathered output and the run's machine statistics.
type Result struct {
	New   *istruct.Matrix
	Stats machine.Stats
}

// Run executes the hand-written program on a fresh machine. old supplies the
// N×N old matrix (fully defined); blksize is the pipeline block size of
// Fig. 3. The returned matrix is the gathered New.
func Run(cfg machine.Config, n, blksize int64, old *istruct.Matrix) (*Result, error) {
	if blksize <= 0 {
		return nil, fmt.Errorf("wavefront: block size must be positive, got %d", blksize)
	}
	if old.Rows() != n || old.Cols() != n {
		return nil, fmt.Errorf("wavefront: old matrix is %dx%d, want %dx%d", old.Rows(), old.Cols(), n, n)
	}
	s := int64(cfg.Procs)
	d := dist.NewCyclicCols(s, n, n)

	m := machine.New(cfg)
	states := make([]*node, cfg.Procs)
	for p := range states {
		states[p] = newNode(int64(p), n, s, blksize, d, old)
	}
	err := m.Run(func(p *machine.Proc) {
		states[p.ID()].run(p)
	})
	if err != nil {
		return nil, err
	}
	// A traced run self-checks against the Breakdown partition.
	if err := m.VerifyTrace(); err != nil {
		return nil, err
	}

	gathered, err := istruct.NewMatrix("New", n, n)
	if err != nil {
		return nil, err
	}
	idx, l := make([]int64, 2), make([]int64, 0, 2)
	for i := int64(1); i <= n; i++ {
		for j := int64(1); j <= n; j++ {
			idx[0], idx[1] = i, j
			l = d.Local(l, idx)
			local := states[d.Owner(idx)].new
			if !local.Defined(l[0], l[1]) {
				continue
			}
			v, _ := local.Read(l[0], l[1])
			if err := gathered.Write(i, j, v); err != nil {
				return nil, err
			}
		}
	}
	stats, err := m.Stats()
	if err != nil {
		return nil, err
	}
	return &Result{New: gathered, Stats: stats}, nil
}

// node is one processor's state.
type node struct {
	me      int64
	n, s    int64
	blksize int64
	d       dist.Dist
	old     *istruct.Matrix // local part
	new     *istruct.Matrix // local part
}

func newNode(me, n, s, blksize int64, d dist.Dist, globalOld *istruct.Matrix) *node {
	ls := d.LocalShape()
	localOld, err := istruct.NewMatrix("Old", ls[0], ls[1])
	if err != nil {
		panic(err)
	}
	localNew, err := istruct.NewMatrix("New", ls[0], ls[1])
	if err != nil {
		panic(err)
	}
	// Ownership is per-column under the wrapped-columns decomposition (the
	// same assumption ownedCols makes), so scatter scans only the owned
	// columns: O(n²) work across the whole machine instead of O(s·n²),
	// which is what lets a 1024-processor 4096×4096 run set up in seconds.
	idx, l := make([]int64, 2), make([]int64, 0, 2)
	for j := int64(1); j <= n; j++ {
		idx[0], idx[1] = 1, j
		if d.Owner(idx) != me {
			continue
		}
		l = d.Local(l, idx)
		lj := l[1]
		for i := int64(1); i <= n; i++ {
			if !globalOld.Defined(i, j) {
				continue
			}
			v, _ := globalOld.Read(i, j)
			if err := localOld.Write(i, lj, v); err != nil {
				panic(err)
			}
		}
	}
	return &node{me: me, n: n, s: s, blksize: blksize, d: d, old: localOld, new: localNew}
}

func (nd *node) localCol(j int64) int64 { return (j-1)/nd.s + 1 }

// ownedCols yields this node's columns in ascending global order.
func (nd *node) ownedCols() []int64 {
	var cols []int64
	for j := int64(1); j <= nd.n; j++ {
		if j%nd.s == nd.me {
			cols = append(cols, j)
		}
	}
	return cols
}

func (nd *node) read(p *machine.Proc, m *istruct.Matrix, i, lj int64) float64 {
	p.Ops(indexCost)
	p.Mem(1)
	v, err := m.Read(i, lj)
	if err != nil {
		panic(err)
	}
	return v
}

func (nd *node) write(p *machine.Proc, m *istruct.Matrix, i, lj int64, v float64) {
	p.Ops(indexCost)
	p.Mem(1)
	if err := m.Write(i, lj, v); err != nil {
		panic(err)
	}
}

// run is the Fig. 3 program. LEFT = (p-1) mod s, RIGHT = (p+1) mod s; for
// every owned column: send the old column left, receive the next old column
// from the right, then compute and communicate the new column in blocks.
func (nd *node) run(p *machine.Proc) {
	n, s, blk := nd.n, nd.s, nd.blksize
	left := int((nd.me - 1 + s) % s)
	right := int((nd.me + 1) % s)
	c := 0.25

	// init-boundary on owned columns.
	for _, j := range nd.ownedCols() {
		p.LoopStep()
		lj := nd.localCol(j)
		nd.write(p, nd.new, 1, lj, 1.0)
		nd.write(p, nd.new, n, lj, 1.0)
		if j == 1 || j == n {
			for i := int64(2); i <= n-1; i++ {
				p.LoopStep()
				nd.write(p, nd.new, i, lj, 1.0)
			}
		}
	}

	oldRecv := make([]float64, n+1) // t[1..N]: the old column received from the right

	for _, j := range nd.ownedCols() {
		p.LoopStep()
		lj := nd.localCol(j)

		if s > 1 {
			// Send column j of Old values to the LEFT (for their column j-1
			// computation), one message per column (Fig. 3's key trick).
			if j >= 3 && j <= n {
				buf := make([]float64, 0, n-2)
				for i := int64(2); i <= n-1; i++ {
					p.LoopStep()
					buf = append(buf, nd.read(p, nd.old, i, lj))
				}
				p.Send(left, tagOld, buf...)
			}
			// Receive column j+1 of Old values from the RIGHT.
			if j >= 2 && j <= n-1 {
				vals := p.Recv(right, tagOld)
				for k, v := range vals {
					oldRecv[int64(k)+2] = v
				}
			}
		} else if j >= 2 && j <= n-1 {
			// Single processor: the "received" column is local.
			ljr := nd.localCol(j + 1)
			for i := int64(2); i <= n-1; i++ {
				p.LoopStep()
				oldRecv[i] = nd.read(p, nd.old, i, ljr)
			}
		}

		// The new values for column j are computed and communicated in
		// blocks of size blksize.
		if j >= 2 && j <= n-1 {
			interior := n - 2
			nblocks := (interior + blk - 1) / blk
			snew := make([]float64, 0, blk)
			for k := int64(0); k < nblocks; k++ {
				p.LoopStep()
				lo := k*blk + 2
				hi := lo + blk - 1
				if hi > n-1 {
					hi = n - 1
				}
				// Receive a block of new values for column j-1.
				var rnew []float64
				if s > 1 {
					rnew = p.Recv(left, tagNew)
				} else {
					ljl := nd.localCol(j - 1)
					rnew = rnew[:0]
					for i := lo; i <= hi; i++ {
						p.LoopStep()
						rnew = append(rnew, nd.read(p, nd.new, i, ljl))
					}
				}
				// Compute a block of new values for column j.
				snew = snew[:0]
				for i := lo; i <= hi; i++ {
					p.LoopStep()
					t1 := nd.read(p, nd.new, i-1, lj)
					t2 := rnew[i-lo]
					t3 := nd.read(p, nd.old, i+1, lj)
					t4 := oldRecv[i]
					p.Ops(4) // three additions and one multiplication
					v := c * (t1 + t2 + t3 + t4)
					nd.write(p, nd.new, i, lj, v)
					snew = append(snew, v)
				}
				// Send these values to the RIGHT.
				if s > 1 && j <= n-2 {
					p.Send(right, tagNew, snew...)
				}
			}
		}

		// The boundary column 1 is produced by init-boundary but its values
		// still feed column 2's computation: its owner ships them in blocks.
		if s > 1 && j == 1 {
			interior := n - 2
			nblocks := (interior + blk - 1) / blk
			for k := int64(0); k < nblocks; k++ {
				p.LoopStep()
				lo := k*blk + 2
				hi := lo + blk - 1
				if hi > n-1 {
					hi = n - 1
				}
				buf := make([]float64, 0, blk)
				for i := lo; i <= hi; i++ {
					p.LoopStep()
					buf = append(buf, nd.read(p, nd.new, i, nd.localCol(1)))
				}
				p.Send(right, tagNew, buf...)
			}
		}
	}
}
