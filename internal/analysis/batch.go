package analysis

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// BlockPool is a persistent pool of workers that process contiguous index
// blocks: Run(n) splits [0, n) into blocks of the configured size and
// invokes fn(worker, lo, hi) for each, up to workers blocks concurrently.
//
// The goroutines are spawned once at construction and parked on a channel
// between calls, so a steady-state Run performs no allocation (goroutine
// spawns, closures and channel buffers all happen up front) — that is what
// lets the batched analysis hot paths hold the 0 allocs/op CI gate. Each
// worker has a stable identity, so callers can give every worker its own
// scratch buffer; and each index is processed by exactly one worker, so
// writes to per-index result slots never race.
//
// Run must not be called concurrently with itself; Close releases the
// workers (idempotent).
type BlockPool struct {
	workers int
	block   int
	fn      func(worker, lo, hi int)

	n      int // rows of the Run in flight; read by workers after the channel send
	tasks  chan int
	wg     sync.WaitGroup
	closed atomic.Bool
}

// NewBlockPool creates the pool. workers <= 1 runs blocks serially on the
// caller's goroutine (no spawned workers); block <= 0 defaults to 64 rows,
// small enough to keep tail blocks balanced and large enough that one block
// amortizes its channel round trip.
func NewBlockPool(workers, block int, fn func(worker, lo, hi int)) *BlockPool {
	if block <= 0 {
		block = 64
	}
	if workers < 1 {
		workers = 1
	}
	p := &BlockPool{workers: workers, block: block, fn: fn}
	if workers > 1 {
		p.tasks = make(chan int, 512)
		for w := 0; w < workers; w++ {
			go p.worker(w)
		}
	}
	return p
}

// Workers reports the pool's worker count (1 means serial).
func (p *BlockPool) Workers() int { return p.workers }

// Block reports the pool's block size in rows.
func (p *BlockPool) Block() int { return p.block }

func (p *BlockPool) worker(w int) {
	for b := range p.tasks {
		lo := b * p.block
		hi := lo + p.block
		if hi > p.n {
			hi = p.n
		}
		p.fn(w, lo, hi)
		p.wg.Done()
	}
}

// Run processes [0, n) in blocks and returns when every block is done.
func (p *BlockPool) Run(n int) {
	if n <= 0 {
		return
	}
	if p.tasks == nil || p.closed.Load() {
		// Serial path: no workers configured, or the pool was already
		// released (a flushed module can still be run by a later engine
		// Flush; correctness over concurrency there).
		for lo := 0; lo < n; lo += p.block {
			hi := lo + p.block
			if hi > n {
				hi = n
			}
			p.fn(0, lo, hi)
		}
		return
	}
	p.n = n // published to workers by the channel sends below
	blocks := (n + p.block - 1) / p.block
	p.wg.Add(blocks)
	for b := 0; b < blocks; b++ {
		p.tasks <- b
	}
	p.wg.Wait()
}

// Close releases the pooled workers (idempotent). Run remains usable after
// Close but degrades to the serial path.
func (p *BlockPool) Close() {
	if p.closed.CompareAndSwap(false, true) && p.tasks != nil {
		close(p.tasks)
	}
}

// BatchClassifier classifies a whole fleet's metric vectors per tick as one
// flat row-major matrix: row i is node i's raw vector, and ClassifyMatrix
// writes node i's 1-NN state index to dst[i]. It is the batched form of
// Model.ClassifyInto — same projection, log scaling and nearest-centroid
// scan, row by row in index order, so the assignments are bit-identical to
// N independent per-node classifications.
//
// Workers process contiguous node blocks from a persistent BlockPool, each
// with its own scratch buffer; after warm-up a ClassifyMatrix call performs
// zero allocations.
type BatchClassifier struct {
	model *Model
	pool  *BlockPool

	scratch [][]float64 // per-worker classify scratch
	errs    []error     // per-worker first error

	// matrix in flight; published to workers by the pool's channel sends.
	raw []float64
	dim int
	dst []int
}

// NewBatchClassifier creates the classifier. workers <= 1 classifies
// serially; block <= 0 uses the pool's default block size.
func NewBatchClassifier(model *Model, workers, block int) *BatchClassifier {
	c := &BatchClassifier{model: model}
	c.pool = NewBlockPool(workers, block, c.classifyBlock)
	c.scratch = make([][]float64, c.pool.Workers())
	c.errs = make([]error, c.pool.Workers())
	return c
}

func (c *BatchClassifier) classifyBlock(w, lo, hi int) {
	if c.errs[w] != nil {
		return
	}
	scratch := c.scratch[w]
	if need := c.model.ScratchLen(c.raw[:c.dim]); len(scratch) < need {
		scratch = make([]float64, need)
		c.scratch[w] = scratch
	}
	for i := lo; i < hi; i++ {
		row := c.raw[i*c.dim : (i+1)*c.dim]
		state, err := c.model.ClassifyInto(row, scratch)
		if err != nil {
			c.errs[w] = fmt.Errorf("analysis: batch classify row %d: %w", i, err)
			return
		}
		c.dst[i] = state
	}
}

// ClassifyMatrix classifies rows raw vectors of the given dimension (raw is
// row-major, len >= rows*dim) and writes the state indexes to dst (len >=
// rows). Safe against concurrent ClassifyMatrix calls is NOT provided; one
// matrix is in flight at a time, which is the module runtime's discipline.
func (c *BatchClassifier) ClassifyMatrix(raw []float64, rows, dim int, dst []int) error {
	if rows == 0 {
		return nil
	}
	if dim <= 0 {
		return fmt.Errorf("analysis: batch classify: dimension must be positive, got %d", dim)
	}
	if len(raw) < rows*dim {
		return fmt.Errorf("analysis: batch classify: matrix has %d values, want >= %d", len(raw), rows*dim)
	}
	if len(dst) < rows {
		return fmt.Errorf("analysis: batch classify: dst has %d slots, want >= %d", len(dst), rows)
	}
	c.raw, c.dim, c.dst = raw, dim, dst
	c.pool.Run(rows)
	c.raw, c.dst = nil, nil
	var first error
	for w, err := range c.errs {
		if err != nil && first == nil {
			first = err
		}
		c.errs[w] = nil
	}
	return first
}

// Close releases the pooled workers.
func (c *BatchClassifier) Close() { c.pool.Close() }
