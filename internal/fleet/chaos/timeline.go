package chaos

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// A timeline is the scripted half of a chaos run: a list of events at
// offsets from the start of the run. The text form is one event per
// line,
//
//	# offsets starting "+" are relative to the previous event,
//	# "@" offsets are absolute from run start.
//	+500ms kill edge-01
//	+2s    restart edge-01
//	@4s    pause edge-02 300ms
//	+1s    heal edge-02
//	+500ms mark settled
//
// Verbs: kill, restart, pause <delay>, partition, dead, heal, mark.
// kill/restart need a process supervisor; pause/partition/dead/heal
// go through a node's chaos control endpoint; mark takes a window
// label instead of a node and only pings observers (the supervisor
// snapshots its hit/error counters there).

// Event is one scripted fault action.
type Event struct {
	// At is the offset from the start of the run.
	At time.Duration `json:"at"`
	// Verb is the action: kill, restart, pause, partition, dead, heal,
	// or mark.
	Verb string `json:"verb"`
	// Node names the target member; for mark it is the window label.
	Node string `json:"node"`
	// Delay is the pause duration (pause verb only).
	Delay time.Duration `json:"delay,omitempty"`
}

// String renders the event in timeline syntax with an absolute offset.
func (e Event) String() string {
	s := fmt.Sprintf("@%s %s %s", e.At, e.Verb, e.Node)
	if e.Verb == "pause" {
		s += " " + e.Delay.String()
	}
	return s
}

// timelineVerbs maps each verb to whether it takes a delay argument.
var timelineVerbs = map[string]bool{
	"kill": false, "restart": false, "pause": true,
	"partition": false, "dead": false, "heal": false, "mark": false,
}

// ParseTimeline reads timeline text. Blank lines and #-comments are
// skipped. Events are returned sorted by offset (stable, so same-
// offset events keep file order).
func ParseTimeline(r io.Reader) ([]Event, error) {
	var events []Event
	var cursor time.Duration // running offset for "+" deltas
	sc := bufio.NewScanner(r)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("chaos: line %d: want \"<offset> <verb> <node>\", got %q", lineno, line)
		}
		off := fields[0]
		var at time.Duration
		switch {
		case strings.HasPrefix(off, "+"):
			d, err := time.ParseDuration(off[1:])
			if err != nil || d < 0 || cursor+d < cursor {
				return nil, fmt.Errorf("chaos: line %d: bad relative offset %q", lineno, off)
			}
			at = cursor + d
		case strings.HasPrefix(off, "@"):
			d, err := time.ParseDuration(off[1:])
			if err != nil || d < 0 {
				return nil, fmt.Errorf("chaos: line %d: bad absolute offset %q", lineno, off)
			}
			at = d
		default:
			return nil, fmt.Errorf("chaos: line %d: offset %q must start with + or @", lineno, off)
		}
		cursor = at

		verb := fields[1]
		wantsDelay, ok := timelineVerbs[verb]
		if !ok {
			return nil, fmt.Errorf("chaos: line %d: unknown verb %q", lineno, verb)
		}
		ev := Event{At: at, Verb: verb, Node: fields[2]}
		if wantsDelay {
			if len(fields) < 4 {
				return nil, fmt.Errorf("chaos: line %d: %s needs a delay argument", lineno, verb)
			}
			d, err := time.ParseDuration(fields[3])
			if err != nil || d < 0 {
				return nil, fmt.Errorf("chaos: line %d: bad delay %q", lineno, fields[3])
			}
			ev.Delay = d
		} else if len(fields) > 3 {
			return nil, fmt.Errorf("chaos: line %d: trailing arguments after %q", lineno, verb)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events, nil
}

// GenerateTimeline produces a seeded random fault schedule over the
// given nodes: each disruption picks a node, a fault (kill, pause, or
// partition), a start offset, and a repair (restart/heal) before the
// run ends — no node is left broken at the end, so recovery is always
// measurable. Same seed, same schedule.
func GenerateTimeline(seed int64, nodes []string, total time.Duration, disruptions int) []Event {
	rng := rand.New(rand.NewSource(seed))
	var events []Event
	if len(nodes) == 0 || disruptions <= 0 || total <= 0 {
		return events
	}
	// Leave the final quarter of the run fault-free so the recovery
	// window the gate measures is clean.
	window := total * 3 / 4
	for i := 0; i < disruptions; i++ {
		node := nodes[rng.Intn(len(nodes))]
		start := time.Duration(rng.Int63n(int64(window / 2)))
		dur := window/4 + time.Duration(rng.Int63n(int64(window/4)))
		if start+dur > window {
			dur = window - start
		}
		switch rng.Intn(3) {
		case 0:
			events = append(events,
				Event{At: start, Verb: "kill", Node: node},
				Event{At: start + dur, Verb: "restart", Node: node})
		case 1:
			delay := 50*time.Millisecond + time.Duration(rng.Int63n(int64(250*time.Millisecond)))
			events = append(events,
				Event{At: start, Verb: "pause", Node: node, Delay: delay},
				Event{At: start + dur, Verb: "heal", Node: node})
		default:
			events = append(events,
				Event{At: start, Verb: "partition", Node: node},
				Event{At: start + dur, Verb: "heal", Node: node})
		}
	}
	events = append(events, Event{At: total - total/8, Verb: "mark", Node: "settled"})
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events
}
