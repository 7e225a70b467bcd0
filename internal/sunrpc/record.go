package sunrpc

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Record marking (RFC 1057 §10): on stream transports each RPC
// message is sent as one or more fragments, each preceded by a
// 32-bit header whose high bit marks the last fragment and whose low
// 31 bits carry the fragment length.

const (
	lastFragFlag = 1 << 31
	maxFragment  = 1 << 20 // fragments we emit; larger messages split
)

// DefaultMaxRecord bounds the total size of a received record when
// the reader was not given an explicit limit, protecting it from
// corrupt length words.
const DefaultMaxRecord = 64 << 20

// writeRecord sends data as a record-marked message, splitting it
// into fragments of at most maxFragment bytes.
func writeRecord(w io.Writer, data []byte) error {
	var hdr [4]byte
	for {
		frag := data
		last := true
		if len(frag) > maxFragment {
			frag, last = data[:maxFragment], false
		}
		n := uint32(len(frag))
		if last {
			n |= lastFragFlag
		}
		binary.BigEndian.PutUint32(hdr[:], n)
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := w.Write(frag); err != nil {
			return err
		}
		if last {
			return nil
		}
		data = data[maxFragment:]
	}
}

// appendRecord appends data to dst as a record-marked message —
// writeRecord's framing, built in memory so a writer can coalesce
// several records into one Write call.
func appendRecord(dst, data []byte) []byte {
	for {
		frag := data
		last := true
		if len(frag) > maxFragment {
			frag, last = data[:maxFragment], false
		}
		word := uint32(len(frag))
		if last {
			word |= lastFragFlag
		}
		dst = binary.BigEndian.AppendUint32(dst, word)
		dst = append(dst, frag...)
		if last {
			return dst
		}
		data = data[maxFragment:]
	}
}

// readRecord reads one record-marked message, reassembling
// fragments. buf is reused when large enough.
func readRecord(r io.Reader, buf []byte) ([]byte, error) {
	return readRecordLimit(r, buf, DefaultMaxRecord)
}

// readRecordLimit is readRecord bounded to limit total bytes
// (DefaultMaxRecord when limit <= 0): the pull form of
// recordAssembler, filling each slice it hands out with io.ReadFull.
// It reads exactly one record, never past its end, so a
// demand-driven reader can stop at a record boundary.
func readRecordLimit(r io.Reader, buf []byte, limit int) ([]byte, error) {
	a := recordAssembler{rec: buf[:0], limit: limit}
	for {
		fill := a.next(maxFragment)
		if _, err := io.ReadFull(r, fill); err != nil {
			return nil, err
		}
		done, err := a.commit(len(fill))
		if err != nil {
			return nil, err
		}
		if done {
			return a.rec, nil
		}
	}
}

// recordAssembler is the one record-marking framer (RFC 1057 §10).
// It hands out the next slice to fill — the rest of a fragment
// header, or part of a fragment body — and the caller reports what it
// filled; readRecordLimit pulls from an io.Reader into the slices,
// and the netpoll driver pushes the bytes of each read into them.
//
// Header bytes land in rec's spare capacity, not in a field: a field
// would make the assembler escape through the io.Reader and put one
// allocation on every pulled record. A fragment's length word is
// attacker-controlled until its bytes arrive, so rec grows at most
// one bounded chunk ahead of the received data.
type recordAssembler struct {
	rec     []byte // the record so far
	limit   int    // record size bound; <= 0 means DefaultMaxRecord
	hdrLen  int    // header bytes filled (< 4 mid-header)
	fragRem int    // body bytes left in the current fragment
	more    bool   // the current fragment is not the record's last
}

// next returns the slice to fill next: the rest of the current
// fragment header, or at most max bytes of the current fragment body.
func (a *recordAssembler) next(max int) []byte {
	n := len(a.rec)
	if a.fragRem == 0 {
		a.rec = growRecord(a.rec, 4)
		return a.rec[n+a.hdrLen : n+4]
	}
	if max > a.fragRem {
		max = a.fragRem
	}
	a.rec = growRecord(a.rec, max)
	return a.rec[n : n+max]
}

// commit accounts for n filled bytes of the slice next returned. It
// reports whether rec now holds a complete record, and rejects one
// whose fragment lengths exceed the limit.
func (a *recordAssembler) commit(n int) (bool, error) {
	if a.fragRem > 0 {
		a.rec = a.rec[:len(a.rec)+n]
		a.fragRem -= n
		return a.fragRem == 0 && !a.more, nil
	}
	if a.hdrLen += n; a.hdrLen < 4 {
		return false, nil
	}
	a.hdrLen = 0
	word := binary.BigEndian.Uint32(a.rec[len(a.rec) : len(a.rec)+4])
	a.more = word&lastFragFlag == 0
	a.fragRem = int(word &^ lastFragFlag)
	limit := a.limit
	if limit <= 0 {
		limit = DefaultMaxRecord
	}
	if a.fragRem > limit || len(a.rec)+a.fragRem > limit {
		return false, fmt.Errorf("%w: record exceeds %d bytes", ErrBadMessage, limit)
	}
	return a.fragRem == 0 && !a.more, nil
}

// midRecord reports whether the assembler holds part of a record.
func (a *recordAssembler) midRecord() bool {
	return len(a.rec) > 0 || a.hdrLen > 0 || a.fragRem > 0 || a.more
}

// growRecord ensures n bytes of spare capacity past len(out),
// growing geometrically so a k-fragment record costs O(log k)
// allocations, and a caller reusing the returned buffer
// (rec[:cap(rec)]) stops allocating once it has seen its
// steady-state message size.
func growRecord(out []byte, n int) []byte {
	if cap(out)-len(out) >= n {
		return out
	}
	newCap := 2 * cap(out)
	if newCap < len(out)+n {
		newCap = len(out) + n
	}
	if newCap < 512 {
		newCap = 512
	}
	grown := make([]byte, len(out), newCap)
	copy(grown, out)
	return grown
}
