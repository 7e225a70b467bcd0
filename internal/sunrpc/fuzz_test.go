package sunrpc

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzReadRecord feeds arbitrary bytes to the record-marking reader.
// Length words in the input are attacker-controlled, so the reader
// must never panic, never return a record past its limit, and —
// because growth is chunked — never allocate far beyond the bytes
// actually present.
func FuzzReadRecord(f *testing.F) {
	var good bytes.Buffer
	if err := writeRecord(&good, []byte("hello, sun rpc record marking")); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	// A two-fragment record, hand-built.
	f.Add([]byte{0x00, 0x00, 0x00, 0x02, 'h', 'i', 0x80, 0x00, 0x00, 0x01, '!'})
	// A hostile length word with no data behind it.
	f.Add([]byte{0x7f, 0xff, 0xff, 0xff})
	f.Add([]byte{})

	const limit = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := readRecordLimit(bytes.NewReader(data), nil, limit)
		if err != nil {
			return
		}
		if len(rec) > limit {
			t.Fatalf("record of %d bytes exceeds limit %d", len(rec), limit)
		}
		if len(rec) > len(data) {
			t.Fatalf("record of %d bytes from %d input bytes", len(rec), len(data))
		}
		// A record the reader accepts must round-trip through the
		// writer and back.
		var out bytes.Buffer
		if err := writeRecord(&out, rec); err != nil {
			t.Fatal(err)
		}
		again, err := readRecordLimit(bytes.NewReader(out.Bytes()), nil, limit)
		if err != nil {
			t.Fatalf("round-trip failed: %v", err)
		}
		if !bytes.Equal(rec, again) {
			t.Fatal("round-trip changed the record")
		}
	})
}

// FuzzRecordAssembler checks the push framer against the pull framer
// on one byte stream cut into arbitrary chunks: stream is the wire
// bytes, and each byte of cuts sizes the next chunk handed to the
// assembler (cycling; no cuts means one chunk). Both framers must
// yield the same records, reject the same record for its size, and
// end in the same class: a clean end at a record boundary, a record
// truncated by the end of the stream, or a rejection.
func FuzzRecordAssembler(f *testing.F) {
	var good bytes.Buffer
	if err := writeRecord(&good, []byte("one")); err != nil {
		f.Fatal(err)
	}
	if err := writeRecord(&good, bytes.Repeat([]byte{'x'}, 300)); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes(), []byte{0, 2, 7})
	f.Add(good.Bytes(), []byte{})
	// Two fragments, then a zero-length last fragment.
	f.Add([]byte{0x00, 0x00, 0x00, 0x02, 'h', 'i', 0x80, 0x00, 0x00, 0x01, '!', 0x80, 0, 0, 0}, []byte{1})
	// A zero-length non-last fragment at the end of the stream.
	f.Add([]byte{0x80, 0, 0, 1, 'a', 0x00, 0, 0, 0}, []byte{3})
	// Over the limit in one fragment, and across two.
	f.Add([]byte{0x80, 0x00, 0x04, 0x01}, []byte{0})
	f.Add([]byte{0x00, 0x00, 0x03, 0x00, 0x80, 0x00, 0x01, 0x01}, []byte{255})

	const limit = 1 << 10
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		pulled, pullEnd := pullRecords(stream, limit)
		pushed, pushEnd := pushRecords(stream, cuts, limit)
		if len(pulled) != len(pushed) {
			t.Fatalf("pull framed %d records, push framed %d", len(pulled), len(pushed))
		}
		for i := range pulled {
			if !bytes.Equal(pulled[i], pushed[i]) {
				t.Fatalf("record %d differs: pull %q, push %q", i, pulled[i], pushed[i])
			}
		}
		if pullEnd != pushEnd {
			t.Fatalf("stream ends as %q under pull, %q under push", pullEnd, pushEnd)
		}
	})
}

// pullRecords frames stream with readRecordLimit until it fails.
func pullRecords(stream []byte, limit int) ([][]byte, string) {
	r := bytes.NewReader(stream)
	var recs [][]byte
	for {
		before := r.Len()
		rec, err := readRecordLimit(r, nil, limit)
		switch {
		case err == nil:
			recs = append(recs, append([]byte{}, rec...))
			continue
		case errors.Is(err, io.EOF) && r.Len() == before:
			return recs, "end"
		case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
			return recs, "truncated"
		}
		return recs, "rejected"
	}
}

// pushRecords frames stream with a recordAssembler, one chunk at a
// time, until the stream ends or the assembler rejects a record.
func pushRecords(stream, cuts []byte, limit int) ([][]byte, string) {
	a := recordAssembler{limit: limit}
	var recs [][]byte
	for i := 0; len(stream) > 0; i++ {
		n := len(stream)
		if len(cuts) > 0 && int(cuts[i%len(cuts)])+1 < n {
			n = int(cuts[i%len(cuts)]) + 1
		}
		chunk := stream[:n]
		stream = stream[n:]
		for len(chunk) > 0 {
			k := copy(a.next(len(chunk)), chunk)
			chunk = chunk[k:]
			done, err := a.commit(k)
			if err != nil {
				return recs, "rejected"
			}
			if done {
				recs = append(recs, append([]byte{}, a.rec...))
				a.rec = a.rec[:0]
			}
		}
	}
	if a.midRecord() {
		return recs, "truncated"
	}
	return recs, "end"
}
