package chaos

import (
	"context"
	"fmt"
	"net/http"
	"time"
)

// Target is what a Controller drives: something that can crash,
// resurrect, and fault-inject named nodes. The jsonfleet supervisor
// implements it with SIGKILL/respawn plus each child's chaos control
// endpoint; internal/fleet's scenario test implements it over httptest
// servers and Injectors.
type Target interface {
	// Kill terminates the node's process (or closes its listener).
	Kill(node string) error
	// Restart brings a killed node back at its previous address.
	Restart(node string) error
	// Inject sets the node's fault mode (pause/partition/dead/ok).
	Inject(node string, mode Mode, delay time.Duration) error
}

// Controller executes a timeline against a Target in real time.
type Controller struct {
	Target Target
	// OnEvent, if set, is called for every event as it fires — mark
	// events exist solely for this hook (counter-snapshot windows).
	OnEvent func(Event)
	// Log, if set, receives a line per applied event.
	Log func(format string, args ...any)
}

// Run applies each event at its offset from now. It returns the first
// application error, or ctx's error if canceled mid-run; mark events
// never fail.
func (c *Controller) Run(ctx context.Context, events []Event) error {
	start := time.Now()
	for _, ev := range events {
		if d := time.Until(start.Add(ev.At)); d > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(d):
			}
		}
		if c.Log != nil {
			c.Log("chaos +%s: %s %s", time.Since(start).Round(time.Millisecond), ev.Verb, ev.Node)
		}
		if err := c.apply(ev); err != nil {
			return fmt.Errorf("chaos: applying %q: %w", ev.String(), err)
		}
		if c.OnEvent != nil {
			c.OnEvent(ev)
		}
	}
	return nil
}

// apply dispatches one event to the target.
func (c *Controller) apply(ev Event) error {
	switch ev.Verb {
	case "mark":
		return nil
	case "kill":
		return c.Target.Kill(ev.Node)
	case "restart":
		return c.Target.Restart(ev.Node)
	case "pause":
		return c.Target.Inject(ev.Node, ModePause, ev.Delay)
	case "partition":
		return c.Target.Inject(ev.Node, ModePartition, 0)
	case "dead":
		return c.Target.Inject(ev.Node, ModeDead, 0)
	case "heal":
		return c.Target.Inject(ev.Node, ModeOK, 0)
	default:
		return fmt.Errorf("unknown verb %q", ev.Verb)
	}
}

// InjectHTTP posts a fault to a node's chaos control endpoint — the
// supervisor-side half of Inject for out-of-process nodes.
func InjectHTTP(ctx context.Context, client *http.Client, controlURL string, mode Mode, delay time.Duration) error {
	url := fmt.Sprintf("%s/chaos?mode=%s", controlURL, mode)
	if delay > 0 {
		url += "&delay=" + delay.String()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("chaos: control %s answered %d", controlURL, resp.StatusCode)
	}
	return nil
}
