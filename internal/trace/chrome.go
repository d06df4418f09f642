package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace_event export: captured traces rendered in the JSON
// object format chrome://tracing and Perfetto load directly. Each
// trace becomes one "process" (pid = trace ID) so several captured
// queries lay out side by side on the shared wall-clock timeline;
// within a trace, lanes (tids) separate the global pipeline stages
// and the per-table probe work.

// chromeEvent is one trace_event entry. Complete events (ph "X") carry
// ts+dur in microseconds; metadata events (ph "M") name processes and
// threads.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  uint64         `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Lane numbering inside one trace's process.
const (
	laneGlobal = 0 // pipeline-level stages (snapshot, sequence, finalize…)
	laneTable  = 1 // + table id: per-table probe/gather/evaluate spans
)

func spanLane(sp Span) int64 {
	if sp.Table >= 0 {
		return laneTable + int64(sp.Table)
	}
	return laneGlobal
}

func laneName(tid int64) string {
	if tid >= laneTable {
		return fmt.Sprintf("table %d", tid-laneTable)
	}
	return "pipeline"
}

// WriteChrome writes the traces as one Chrome trace_event JSON object.
// Timestamps are wall-clock microseconds, so traces captured minutes
// apart appear with their real gaps (Perfetto's timeline handles the
// offsets).
func WriteChrome(w io.Writer, traces ...*Trace) error {
	var f chromeFile
	f.DisplayTimeUnit = "ns"
	f.TraceEvents = []chromeEvent{} // encode [] rather than null when empty
	for _, tr := range traces {
		if tr == nil {
			continue
		}
		pid := tr.ID
		base := float64(tr.Begin.UnixMicro())
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: laneGlobal,
			Args: map[string]any{"name": fmt.Sprintf("query %d (%s)", tr.ID, tr.Method)},
		})
		lanesNamed := map[int64]bool{}
		for _, sp := range tr.Spans {
			tid := spanLane(sp)
			if !lanesNamed[tid] {
				lanesNamed[tid] = true
				f.TraceEvents = append(f.TraceEvents, chromeEvent{
					Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
					Args: map[string]any{"name": laneName(tid)},
				})
			}
			args := map[string]any{}
			if sp.Table >= 0 {
				args["table"] = sp.Table
			}
			if sp.Work.Buckets > 0 {
				args["buckets"] = sp.Work.Buckets
			}
			if sp.Work.Probed > 0 {
				args["probed"] = sp.Work.Probed
			}
			if sp.Work.Candidates > 0 {
				args["candidates"] = sp.Work.Candidates
			}
			if sp.Work.Abandoned > 0 {
				args["abandoned"] = sp.Work.Abandoned
			}
			if sp.Work.Frontier > 0 {
				args["frontier"] = sp.Work.Frontier
			}
			f.TraceEvents = append(f.TraceEvents, chromeEvent{
				Name: sp.Stage.String(), Cat: "gqr", Ph: "X",
				Ts:  base + float64(sp.Start.Nanoseconds())/1e3,
				Dur: float64(sp.Dur.Nanoseconds()) / 1e3,
				Pid: pid, Tid: tid, Args: args,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}
