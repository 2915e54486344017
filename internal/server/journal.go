package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// Record is one JSONL journal line. Three record types cover the whole
// job lifecycle:
//
//	{"type":"job","job":"job-1","spec":{...}}        job admitted
//	{"type":"result","job":"job-1","index":3,...}    program 3 committed
//	{"type":"state","job":"job-1","state":"..."}     terminal transition
//
// Result records for one job appear in strictly ascending contiguous
// index order (the scheduler commits in order), so replay recovers the
// cursor as the count of result lines. A job with no terminal state
// record was queued or running when the process died; replay re-queues
// it at its cursor. Nothing is ever rewritten: the journal is
// append-only and one Write call per line, so a SIGKILL can lose at most
// the final, partially written line — which replay tolerates and
// discards.
type Record struct {
	Type   string         `json:"type"`
	Job    string         `json:"job"`
	Spec   *JobSpec       `json:"spec,omitempty"`
	Index  int            `json:"index,omitempty"`
	Result *ProgramResult `json:"result,omitempty"`
	State  JobState       `json:"state,omitempty"`
	Error  string         `json:"error,omitempty"`
}

// ErrJournalClosed reports an append to, or a read from, a journal that
// has been closed. Manager.Results returns it for a page that would carry
// results after Drain: results are read back from the journal, and Drain
// closes it.
var ErrJournalClosed = errors.New("server: journal closed")

// Span locates one journal line: its byte offset and its length, newline
// included. The manager keeps a span per committed program instead of the
// result itself and reads the line back when the result is asked for.
type Span struct {
	Off, Len int64
}

// Entry is one replayed record and the span of its line.
type Entry struct {
	Record
	Span Span
}

// Journal is the append-only JSONL persistence layer. It is backed by a
// file (OpenJournal) or, for a manager without a journal path, by memory
// (newMemJournal) — the same append and read-back path either way.
type Journal struct {
	mu     sync.Mutex
	f      *os.File // nil for an in-memory journal
	mem    []byte   // an in-memory journal's lines
	size   int64    // bytes written: the offset of the next line
	closed bool
}

// newMemJournal returns an empty in-memory journal.
func newMemJournal() *Journal { return &Journal{} }

// OpenJournal opens (creating if absent) the journal at path for
// appending and replays the records already present, each with the span
// of its line. Every record is written newline-terminated in one Write,
// so a kill mid-write leaves at most a torn tail after the last newline:
// that tail is truncated away before replay. A line that survives
// truncation but does not parse is a real integrity failure and errors
// out.
func OpenJournal(path string) (*Journal, []Entry, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*Journal, []Entry, error) {
		f.Close()
		return nil, nil, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return fail(err)
	}
	// Drop the torn tail: anything after the final newline was never
	// fully appended. The newline is each record's last byte, so no
	// partially written record can survive this cut.
	if cut := bytes.LastIndexByte(data, '\n') + 1; cut < len(data) {
		data = data[:cut]
		if err := f.Truncate(int64(cut)); err != nil {
			return fail(err)
		}
	}
	var ents []Entry
	for off, lineno := 0, 1; off < len(data); lineno++ {
		n := bytes.IndexByte(data[off:], '\n') + 1
		if line := data[off : off+n-1]; len(line) > 0 {
			var r Record
			if err := json.Unmarshal(line, &r); err != nil {
				return fail(fmt.Errorf("server: journal %s line %d corrupt: %w", path, lineno, err))
			}
			ents = append(ents, Entry{Record: r, Span: Span{Off: int64(off), Len: int64(n)}})
		}
		off += n
	}
	// Reposition for appends: O_APPEND is not used so truncation and
	// writes share one descriptor; seek to the (possibly cut) end.
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		return fail(err)
	}
	return &Journal{f: f, size: int64(len(data))}, ents, nil
}

// Append writes one record as a single line + write syscall, so a crash
// between appends never leaves a half-record followed by more data. It
// reports the span of the line it wrote.
func (j *Journal) Append(r Record) (Span, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return Span{}, err
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return Span{}, ErrJournalClosed
	}
	sp := Span{Off: j.size, Len: int64(len(b))}
	if j.f == nil {
		j.mem = append(j.mem, b...)
		j.size += sp.Len
		return sp, nil
	}
	n, err := j.f.Write(b)
	j.size += int64(n)
	return sp, err
}

// Read decodes the record on the line at s, a span that Append or
// OpenJournal reported for this journal.
func (j *Journal) Read(s Span) (Record, error) {
	line := make([]byte, s.Len)
	j.mu.Lock()
	var err error
	switch {
	case j.closed:
		err = ErrJournalClosed
	case j.f == nil:
		copy(line, j.mem[s.Off:s.Off+s.Len])
	default:
		_, err = j.f.ReadAt(line, s.Off)
	}
	j.mu.Unlock()
	var r Record
	if err == nil {
		err = json.Unmarshal(line, &r)
	}
	return r, err
}

// Close flushes nothing (every Append is already durable in the page
// cache) and releases the descriptor, or an in-memory journal's lines.
// Later appends and reads fail with ErrJournalClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed, j.mem = true, nil
	if j.f == nil {
		return nil
	}
	return j.f.Close()
}
