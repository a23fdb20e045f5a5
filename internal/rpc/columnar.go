package rpc

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Columnar, delta-encoded wire format for metric streams. A stream opens
// with one schema frame naming every column once (method, node, column
// groups); after that each tick ships a data frame of zigzag-varint deltas
// of the IEEE-754 bit patterns against the previous tick, with run-length
// encoding over unchanged columns. Metric vectors have a fixed per-node
// layout and change slowly tick-to-tick, so a steady-state frame is a few
// bytes per changed column and an idle tick costs a handful of bytes total —
// versus ~20 bytes per column for the JSON path, every tick.
//
// Frame grammar (one transport body may concatenate several frames):
//
//	schema := 0x01 version:uvarint method:str node:str ngroups:uvarint group*
//	group  := name:str ncols:uvarint (colname:str coltype:u8)*
//	data   := 0x02 seq:uvarint nrows:uvarint row*
//	row    := flags:u8 presence:bitmap[ceil(ngroups/8)] tdelta:zigzag group-runs*
//	runs   := (skip:uvarint (take:uvarint delta:zigzag{take})?)*   — per PRESENT group
//	str    := len:uvarint bytes
//
// Delta state: both ends keep one previous bit pattern per column and the
// previous row time. A row's time is a zigzag varint delta in nanoseconds
// against the previous row (or frame). Only columns of PRESENT groups are
// coded and have their previous-value state advanced; an absent group's
// state is untouched on both sides, so presence can toggle tick-to-tick
// without resynchronizing. Values travel as bit-pattern deltas, never as
// parsed numbers, so NaN, infinities, and denormals round-trip bit-exact —
// which is what makes the columnar path byte-identical to JSON at the sink.
//
// Sequence numbers are per-stream and strictly consecutive; a gap means the
// receiver lost a frame and must error rather than silently apply deltas to
// stale state. A schema frame resets sequence and delta state, which is how
// a reconnected stream resynchronizes: server-side stream state lives on the
// connection, so a fresh connection re-sends the schema first.

// Columnar frame kinds.
const (
	frameKindSchema = 0x01
	frameKindData   = 0x02
)

// columnarVersion is the codec version carried in every schema frame.
const columnarVersion = 1

// Decoder hardening bounds: a hostile frame must fail fast instead of
// driving large allocations. Real streams are a few groups of at most a few
// hundred columns and one or a few rows per frame.
const (
	maxSchemaString   = 4096
	maxSchemaGroups   = 4096
	maxSchemaColumns  = 1 << 20
	maxFrameRows      = 1 << 16
	maxFrameCells     = 1 << 22 // rows x columns materialized per frame
	maxStreamsPerConn = 64
)

// ColumnType identifies a column's value encoding. Only float64 exists
// today; the byte is on the wire so new types can be added without a
// protocol bump.
type ColumnType byte

// ColumnFloat64 is an IEEE-754 double transported as bit-pattern deltas.
const ColumnFloat64 ColumnType = 0

// ColumnGroup names one contiguous block of columns that is present or
// absent as a unit in each row (e.g. the sadc node vector, or one
// interface's net counters).
type ColumnGroup struct {
	Name    string
	Columns []string
}

// StreamSchema describes a metric stream: the originating method, the node
// it covers, and the column groups of every row.
type StreamSchema struct {
	Method string
	Node   string
	Groups []ColumnGroup
}

func (s *StreamSchema) numCols() int {
	n := 0
	for _, g := range s.Groups {
		n += len(g.Columns)
	}
	return n
}

// StreamRow is one decoded row. Present has one entry per schema group;
// Values is the flat concatenation of every group's columns (absent groups
// keep their last transmitted values — consult Present before using them).
// The slices are owned by the decoder and valid until the next Decode.
type StreamRow struct {
	TimeNanos int64
	Warmup    bool
	Present   []bool
	Values    []float64
}

const rowFlagWarmup = 1 << 0

func zigzagEncode(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }
func zigzagDecode(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func appendColumnarString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// ColumnarEncoder encodes a stream's frames. It owns the per-column delta
// state; Finish on the first tick emits the schema frame ahead of the data
// frame, and every buffer is reused so the steady-state encode path performs
// zero allocations.
type ColumnarEncoder struct {
	schema   StreamSchema
	groupOff []int // flat column offset of each group
	groupLen []int
	ncols    int

	prev     []uint64 // previous bit pattern per column
	prevTime int64
	seq      uint64
	sentSch  bool

	buf    []byte // header room + assembled data frame, reused across Finish calls
	rowBuf []byte // encoded rows of the in-progress data frame
	nrows  int
	began  bool
}

// NewColumnarEncoder creates an encoder for schema. The schema is captured
// by reference and must not be mutated afterwards.
func NewColumnarEncoder(schema StreamSchema) *ColumnarEncoder {
	e := &ColumnarEncoder{schema: schema}
	e.groupOff = make([]int, len(schema.Groups))
	e.groupLen = make([]int, len(schema.Groups))
	off := 0
	for i, g := range schema.Groups {
		e.groupOff[i] = off
		e.groupLen[i] = len(g.Columns)
		off += len(g.Columns)
	}
	e.ncols = off
	e.prev = make([]uint64, off)
	return e
}

// Schema returns the stream schema the encoder was built with.
func (e *ColumnarEncoder) Schema() StreamSchema { return e.schema }

// Reset clears all delta state, as if the stream had just opened: the next
// Finish re-emits the schema frame and restarts sequence numbering.
func (e *ColumnarEncoder) Reset() {
	for i := range e.prev {
		e.prev[i] = 0
	}
	e.prevTime = 0
	e.seq = 0
	e.sentSch = false
	e.began = false
	e.nrows = 0
}

// Begin starts a new data frame. Rows are added with AppendRow and the frame
// is assembled by Finish.
func (e *ColumnarEncoder) Begin() {
	e.rowBuf = e.rowBuf[:0]
	e.nrows = 0
	e.began = true
}

// AppendRow encodes one row into the in-progress frame. present has one
// entry per schema group (nil means every group is present); values is the
// flat column vector — only the columns of present groups are read.
func (e *ColumnarEncoder) AppendRow(timeNanos int64, warmup bool, present []bool, values []float64) error {
	if !e.began {
		return fmt.Errorf("rpc: columnar: AppendRow before Begin")
	}
	if present != nil && len(present) != len(e.schema.Groups) {
		return fmt.Errorf("rpc: columnar: presence vector has %d entries, schema has %d groups",
			len(present), len(e.schema.Groups))
	}
	if len(values) != e.ncols {
		return fmt.Errorf("rpc: columnar: row has %d values, schema has %d columns",
			len(values), e.ncols)
	}

	var flags byte
	if warmup {
		flags |= rowFlagWarmup
	}
	e.rowBuf = append(e.rowBuf, flags)

	nb := (len(e.schema.Groups) + 7) / 8
	bitmapAt := len(e.rowBuf)
	for i := 0; i < nb; i++ {
		e.rowBuf = append(e.rowBuf, 0)
	}
	for gi := range e.schema.Groups {
		if present == nil || present[gi] {
			e.rowBuf[bitmapAt+gi/8] |= 1 << (gi % 8)
		}
	}

	e.rowBuf = binary.AppendUvarint(e.rowBuf, zigzagEncode(timeNanos-e.prevTime))
	e.prevTime = timeNanos

	for gi := range e.schema.Groups {
		if present == nil || present[gi] {
			e.appendGroupRuns(gi, values)
		}
	}
	e.nrows++
	return nil
}

// appendGroupRuns emits the skip/take run-length stream for one group:
// alternating counts of unchanged and changed columns, with a zigzag varint
// bit-pattern delta per changed column. A fully unchanged group costs one
// varint.
func (e *ColumnarEncoder) appendGroupRuns(gi int, values []float64) {
	off, n := e.groupOff[gi], e.groupLen[gi]
	i := 0
	for i < n {
		skip := 0
		for i+skip < n && math.Float64bits(values[off+i+skip]) == e.prev[off+i+skip] {
			skip++
		}
		e.rowBuf = binary.AppendUvarint(e.rowBuf, uint64(skip))
		i += skip
		if i == n {
			break
		}
		take := 0
		for i+take < n && math.Float64bits(values[off+i+take]) != e.prev[off+i+take] {
			take++
		}
		e.rowBuf = binary.AppendUvarint(e.rowBuf, uint64(take))
		for j := 0; j < take; j++ {
			cur := math.Float64bits(values[off+i+j])
			// Wrapping uint64 subtraction: the decoder adds it back mod 2^64.
			e.rowBuf = binary.AppendUvarint(e.rowBuf, zigzagEncode(int64(cur-e.prev[off+i+j])))
			e.prev[off+i+j] = cur
		}
		i += take
	}
}

// Finish assembles the frame bytes: the schema frame first if it has not
// been sent on this stream yet, then the data frame with the rows appended
// since Begin. The returned slice is reused by the next Finish.
func (e *ColumnarEncoder) Finish() []byte { return e.finish()[frameHeaderLen:] }

// finish is Finish with frameHeaderLen bytes reserved ahead of the body, so
// the server sends the frame without copying it.
func (e *ColumnarEncoder) finish() []byte {
	buf := append(e.buf[:0], make([]byte, frameHeaderLen)...)
	withSchema := !e.sentSch
	if withSchema {
		buf = e.appendSchemaFrame(buf)
		e.sentSch = true
	}
	e.seq++
	buf = append(buf, frameKindData)
	buf = binary.AppendUvarint(buf, e.seq)
	buf = binary.AppendUvarint(buf, uint64(e.nrows))
	buf = append(buf, e.rowBuf...)
	e.began = false
	if !withSchema {
		// Only data frames size the buffer kept for reuse: the schema is
		// sent once per stream and dwarfs them.
		e.buf = buf
	}
	return buf
}

func (e *ColumnarEncoder) appendSchemaFrame(dst []byte) []byte {
	dst = append(dst, frameKindSchema)
	dst = binary.AppendUvarint(dst, columnarVersion)
	dst = appendColumnarString(dst, e.schema.Method)
	dst = appendColumnarString(dst, e.schema.Node)
	dst = binary.AppendUvarint(dst, uint64(len(e.schema.Groups)))
	for _, g := range e.schema.Groups {
		dst = appendColumnarString(dst, g.Name)
		dst = binary.AppendUvarint(dst, uint64(len(g.Columns)))
		for _, c := range g.Columns {
			dst = appendColumnarString(dst, c)
			dst = append(dst, byte(ColumnFloat64))
		}
	}
	return dst
}

// columnarCursor is a bounds-checked reader over one transport body. Every
// read validates the remaining length, so arbitrary input errors cleanly
// instead of panicking or over-reading — the property the fuzz test holds.
type columnarCursor struct {
	b   []byte
	off int
}

func (c *columnarCursor) rem() int { return len(c.b) - c.off }

func (c *columnarCursor) u8() (byte, error) {
	if c.off >= len(c.b) {
		return 0, fmt.Errorf("rpc: columnar: truncated frame")
	}
	v := c.b[c.off]
	c.off++
	return v, nil
}

func (c *columnarCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("rpc: columnar: bad varint at offset %d", c.off)
	}
	c.off += n
	return v, nil
}

func (c *columnarCursor) str() (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxSchemaString {
		return "", fmt.Errorf("rpc: columnar: string of %d bytes exceeds limit", n)
	}
	if uint64(c.rem()) < n {
		return "", fmt.Errorf("rpc: columnar: truncated string")
	}
	s := string(c.b[c.off : c.off+int(n)])
	c.off += int(n)
	return s, nil
}

// ColumnarDecoder decodes a stream's frames, mirroring the encoder's delta
// state. Row storage is reused across Decode calls, so the steady-state
// decode path performs zero allocations.
type ColumnarDecoder struct {
	schema  StreamSchema
	haveSch bool

	groupOff []int
	groupLen []int
	ncols    int

	prev     []uint64
	prevTime int64
	seq      uint64

	rows  []StreamRow
	nrows int
}

// NewColumnarDecoder creates an empty decoder; the schema arrives in-band
// with the first frame.
func NewColumnarDecoder() *ColumnarDecoder {
	return &ColumnarDecoder{}
}

// Reset discards the schema and all delta state, as for a freshly opened
// stream. The client does this when it reopens a stream on a new connection.
func (d *ColumnarDecoder) Reset() {
	d.haveSch = false
	d.nrows = 0
	d.seq = 0
	d.prevTime = 0
}

// Schema returns the stream schema, once a schema frame has been decoded.
func (d *ColumnarDecoder) Schema() (StreamSchema, bool) { return d.schema, d.haveSch }

// Rows returns the rows decoded by the last Decode call. The backing
// storage is reused by the next Decode.
func (d *ColumnarDecoder) Rows() []StreamRow { return d.rows[:d.nrows] }

// Decode consumes one transport body, which may concatenate a schema frame
// and/or data frames. Decoded rows are available from Rows until the next
// call. Any error leaves the decoder unusable until Reset — delta state may
// have partially advanced.
func (d *ColumnarDecoder) Decode(body []byte) error {
	d.nrows = 0
	cur := columnarCursor{b: body}
	for cur.off < len(cur.b) {
		kind, err := cur.u8()
		if err != nil {
			return err
		}
		switch kind {
		case frameKindSchema:
			if err := d.decodeSchema(&cur); err != nil {
				return err
			}
		case frameKindData:
			if err := d.decodeData(&cur); err != nil {
				return err
			}
		default:
			return fmt.Errorf("rpc: columnar: unknown frame kind 0x%02x", kind)
		}
	}
	return nil
}

func (d *ColumnarDecoder) decodeSchema(cur *columnarCursor) error {
	ver, err := cur.uvarint()
	if err != nil {
		return err
	}
	if ver != columnarVersion {
		return fmt.Errorf("rpc: columnar: schema version %d, want %d", ver, columnarVersion)
	}
	method, err := cur.str()
	if err != nil {
		return err
	}
	node, err := cur.str()
	if err != nil {
		return err
	}
	ngroups, err := cur.uvarint()
	if err != nil {
		return err
	}
	if ngroups > maxSchemaGroups {
		return fmt.Errorf("rpc: columnar: %d groups exceeds limit", ngroups)
	}
	groups := make([]ColumnGroup, 0, ngroups)
	total := 0
	for gi := uint64(0); gi < ngroups; gi++ {
		name, err := cur.str()
		if err != nil {
			return err
		}
		ncols, err := cur.uvarint()
		if err != nil {
			return err
		}
		if total+int(ncols) > maxSchemaColumns || ncols > maxSchemaColumns {
			return fmt.Errorf("rpc: columnar: schema exceeds %d columns", maxSchemaColumns)
		}
		cols := make([]string, 0, ncols)
		for ci := uint64(0); ci < ncols; ci++ {
			cn, err := cur.str()
			if err != nil {
				return err
			}
			ct, err := cur.u8()
			if err != nil {
				return err
			}
			if ColumnType(ct) != ColumnFloat64 {
				return fmt.Errorf("rpc: columnar: unsupported column type %d", ct)
			}
			cols = append(cols, cn)
		}
		groups = append(groups, ColumnGroup{Name: name, Columns: cols})
		total += int(ncols)
	}

	d.schema = StreamSchema{Method: method, Node: node, Groups: groups}
	if cap(d.groupOff) < len(groups) {
		d.groupOff = make([]int, len(groups))
		d.groupLen = make([]int, len(groups))
	}
	d.groupOff = d.groupOff[:len(groups)]
	d.groupLen = d.groupLen[:len(groups)]
	off := 0
	for i, g := range groups {
		d.groupOff[i] = off
		d.groupLen[i] = len(g.Columns)
		off += len(g.Columns)
	}
	d.ncols = off
	if cap(d.prev) < off {
		d.prev = make([]uint64, off)
	}
	d.prev = d.prev[:off]
	for i := range d.prev {
		d.prev[i] = 0
	}
	d.prevTime = 0
	d.seq = 0
	d.haveSch = true
	return nil
}

func (d *ColumnarDecoder) decodeData(cur *columnarCursor) error {
	if !d.haveSch {
		return fmt.Errorf("rpc: columnar: data frame before schema")
	}
	seq, err := cur.uvarint()
	if err != nil {
		return err
	}
	if seq != d.seq+1 {
		return fmt.Errorf("rpc: columnar: stream out of sync: frame seq %d after %d", seq, d.seq)
	}
	d.seq = seq
	nrows, err := cur.uvarint()
	if err != nil {
		return err
	}
	// Each row costs at least flags + bitmap + time on the wire, so a row
	// count beyond the remaining bytes is a lie; the cell cap bounds the
	// materialized row storage against tiny-row/wide-schema bombs.
	if nrows > maxFrameRows || nrows > uint64(cur.rem())+1 {
		return fmt.Errorf("rpc: columnar: frame claims %d rows", nrows)
	}
	if d.ncols > 0 && nrows*uint64(d.ncols) > maxFrameCells {
		return fmt.Errorf("rpc: columnar: frame of %d rows x %d columns exceeds limit", nrows, d.ncols)
	}
	nb := (len(d.schema.Groups) + 7) / 8
	for ri := uint64(0); ri < nrows; ri++ {
		flags, err := cur.u8()
		if err != nil {
			return err
		}
		if cur.rem() < nb {
			return fmt.Errorf("rpc: columnar: truncated presence bitmap")
		}
		bitmap := cur.b[cur.off : cur.off+nb]
		cur.off += nb
		tdelta, err := cur.uvarint()
		if err != nil {
			return err
		}
		d.prevTime += zigzagDecode(tdelta)
		for gi := range d.schema.Groups {
			if bitmap[gi/8]&(1<<(gi%8)) == 0 {
				continue
			}
			if err := d.decodeGroupRuns(cur, gi); err != nil {
				return err
			}
		}
		row := d.row()
		row.TimeNanos = d.prevTime
		row.Warmup = flags&rowFlagWarmup != 0
		for gi := range d.schema.Groups {
			row.Present[gi] = bitmap[gi/8]&(1<<(gi%8)) != 0
		}
		for i, bits := range d.prev {
			row.Values[i] = math.Float64frombits(bits)
		}
	}
	return nil
}

func (d *ColumnarDecoder) decodeGroupRuns(cur *columnarCursor, gi int) error {
	off, n := d.groupOff[gi], d.groupLen[gi]
	i := 0
	for i < n {
		skip, err := cur.uvarint()
		if err != nil {
			return err
		}
		if skip > uint64(n-i) {
			return fmt.Errorf("rpc: columnar: skip run of %d exceeds %d remaining columns", skip, n-i)
		}
		i += int(skip)
		if i == n {
			break
		}
		take, err := cur.uvarint()
		if err != nil {
			return err
		}
		if take == 0 || take > uint64(n-i) {
			return fmt.Errorf("rpc: columnar: take run of %d with %d remaining columns", take, n-i)
		}
		for j := 0; j < int(take); j++ {
			dv, err := cur.uvarint()
			if err != nil {
				return err
			}
			d.prev[off+i+j] += uint64(zigzagDecode(dv))
		}
		i += int(take)
	}
	return nil
}

// row returns reusable storage for the next decoded row, sized to the
// current schema.
func (d *ColumnarDecoder) row() *StreamRow {
	if d.nrows >= len(d.rows) {
		d.rows = append(d.rows, StreamRow{})
	}
	r := &d.rows[d.nrows]
	d.nrows++
	if cap(r.Values) < d.ncols {
		r.Values = make([]float64, d.ncols)
	}
	r.Values = r.Values[:d.ncols]
	if cap(r.Present) < len(d.schema.Groups) {
		r.Present = make([]bool, len(d.schema.Groups))
	}
	r.Present = r.Present[:len(d.schema.Groups)]
	return r
}
