package device

import "tsue/internal/sim"

// Log is a circular append log on a flash zone of its own: an engine's
// on-disk log, a replica log or a degraded journal. An append reserves its
// position before its write yields, so appends that overlap in time get
// distinct, contiguous positions and the disk sees them as one sequential
// stream. Advancing the position only after the write would hand every
// overlapping append the same offset, and all but the first would be
// charged as random writes.
type Log struct {
	d    *Disk
	zone int
	span int64 // device bytes the log wraps around in
	n    int64 // bytes appended since creation or the last Reset
}

// NewLog registers a flash zone for a circular log of span bytes.
func (d *Disk) NewLog(name string, span int64) *Log {
	return &Log{d: d, zone: d.NewZone(name, true), span: span}
}

// Reserve claims the log's next n bytes and returns their position. It
// never yields, so a caller can order the reservation with other state it
// changes before its first wait.
func (l *Log) Reserve(n int64) int64 {
	pos := l.n % l.span
	l.n += n
	return pos
}

// Write charges the write of n bytes at pos, a position Reserve returned.
func (l *Log) Write(p *sim.Proc, pos, n int64) { l.d.Write(p, l.zone, pos, n, false) }

// Append reserves n bytes, charges their write and returns their position.
func (l *Log) Append(p *sim.Proc, n int64) int64 {
	pos := l.Reserve(n)
	l.Write(p, pos, n)
	return pos
}

// Read charges a read of n bytes at off.
func (l *Log) Read(p *sim.Proc, off, n int64) { l.d.Read(p, l.zone, off, n) }

// Len returns the bytes appended since creation or the last Reset.
func (l *Log) Len() int64 { return l.n }

// Reset empties the log once its records are recycled: the next append
// lands at position 0.
func (l *Log) Reset() { l.n = 0 }
