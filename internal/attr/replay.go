package attr

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// ReplayJSONL rebuilds a Breakdown from a saved JSONL trace (trace.JSONL
// format) instead of a live run, so reports can be regenerated without
// re-simulating. run selects one batch child (the "run" field; 0 is the
// untagged parent); pass -1 to accept every run.
//
// Replay sees exactly the spans a live collector would, with two
// differences: there is no sampler, so time series and peak-window
// utilisation are absent, and link busy cycles are approximated by the sum
// of hop span durations (an upper bound including the fixed hop latency).
// The run length is taken as the latest span end. A number that is
// negative, fractional or above 2^53 is an error.
func ReplayJSONL(r io.Reader, run int) (*Breakdown, error) {
	c := NewCollector(Config{})
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	var maxEnd uint64
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e traceLine
		err := json.Unmarshal(line, &e)
		if err == nil && max(e.Run, e.Ts, e.Dur, e.Req, e.Src, e.GPM, e.VPN, e.From, e.To,
			e.Fx, e.Fy, e.Tx, e.Ty, e.Bytes, e.Defl) > maxExact {
			err = errors.New("number above 2^53")
		}
		if err != nil {
			return nil, fmt.Errorf("attr: trace line %d: %w", lineNo, err)
		}
		if run >= 0 && int(e.Run) != run {
			continue
		}
		ts, end := e.Ts, e.Ts+e.Dur
		maxEnd = max(maxEnd, end)
		switch e.Ev {
		case "request":
			c.OnRequest(ts, end, e.Req, int(e.Src), int(e.GPM))
		case "queued":
			c.OnQueue(e.Tid, ts, end, e.Req)
		case "walk":
			c.OnWalk(ts, end, e.Req, e.VPN)
		case "hop":
			c.OnHop(ts, end, int(e.Fx), int(e.Fy), int(e.Tx), int(e.Ty), int(e.Bytes), e.Defl != 0)
		case "migration":
			c.OnMigration(ts, end, e.VPN, int(e.From), int(e.To))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("attr: reading trace: %w", err)
	}
	return c.Finalize("", "", maxEnd), nil
}

// maxExact bounds every trace number: whole numbers up to 2^53 are exact
// in any JSON reader, larger ones are not.
const maxExact = 1 << 53

// traceLine is one JSONL trace event; keys match field names regardless of
// case. Every number is a cycle count, id or coordinate, so a negative or
// fractional one fails to decode into its uint64 field.
type traceLine struct {
	Ev, Tid                                    string
	Run, Ts, Dur, Req, Src, GPM, VPN, From, To uint64
	Fx, Fy, Tx, Ty, Bytes, Defl                uint64
}
