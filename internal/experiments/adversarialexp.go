package experiments

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"repro/internal/anomaly"
	"repro/internal/core"
	"repro/internal/defend"
	"repro/internal/edge"
	"repro/internal/logfmt"
	"repro/internal/ngram"
	"repro/internal/serve"
	"repro/internal/synth"
)

// AdversarialCeiling is the origin-amplification bound the defended
// edge must hold: attack-attributed origin fetches per attack request.
// An undefended edge lets a cache-busting storm through one-for-one
// (amplification ~1 for that population); the detect-and-defend loop
// must keep the blended figure under this ceiling. The same constant
// gates the live replay in scripts/attack-check.sh.
const AdversarialCeiling = 0.35

// AdversarialResult carries the robustness experiment: the same benign
// stream with an overlaid multi-population attack, served by an
// undefended and a defended edge, compared on origin amplification and
// benign-traffic health.
type AdversarialResult struct {
	// BenignRequests and AttackRequests are the stream sizes at the
	// base attack intensity; AttackRequests2x is the doubled storm.
	BenignRequests   int
	AttackRequests   int
	AttackRequests2x int

	// *Amplification is attack-attributed origin fetches per attack
	// request at the base intensity; *AttackFetches the raw counts.
	UndefendedAmplification float64
	DefendedAmplification   float64
	UndefendedAttackFetches int64
	DefendedAttackFetches   int64

	// *Growth is the factor by which attack-attributed origin fetches
	// grow when the attack doubles: near 2 means the edge passes the
	// extra load straight to origin, near 1 means the defense absorbed
	// it.
	UndefendedGrowth float64
	DefendedGrowth   float64

	// Benign-traffic health at the base intensity: cache hit rate over
	// benign GETs of cacheable objects, modeled p99 latency, and the
	// defended stack's benign collateral (rejected benign requests).
	UndefendedBenignHitRate  float64
	DefendedBenignHitRate    float64
	UndefendedBenignP99      time.Duration
	DefendedBenignP99        time.Duration
	DefendedBenignRejectRate float64

	// Defense actions at the base intensity.
	Shed, Collapsed, NegativeHits, AnomalyFlags int64

	// Ceiling echoes AdversarialCeiling; CeilingOK is the defended
	// bound holding, StrictlyWorse the undefended edge doing worse on
	// both amplification and growth.
	Ceiling       float64
	CeilingOK     bool
	StrictlyWorse bool
}

// advLatency models serving cost for the benign-latency comparison:
// a cache hit answers locally, anything touching origin pays a
// round trip per fetch. The absolute numbers are nominal; what the
// experiment compares is their distribution shift under cache thrash.
const (
	advHitCost   = 2 * time.Millisecond
	advFetchCost = 25 * time.Millisecond
)

// newAdvStack builds an edge sized so the benign working set fits but
// a cache-busting storm causes real eviction pressure: it departs from
// the served node in origin (a WildcardOrigin without latency), cache
// (4 MiB), and in leaving out the resilience path (Bare): the exhibit
// measures the cache and the defense, and its origin never fails. The
// defended stack gets the full detect-and-defend loop: token buckets,
// cache-key collapse, negative caching, fan-out suspicion, and the
// ngram request detector trained on the benign stream.
func (r *Runner) newAdvStack(defended bool, name string, model *ngram.Model) *simEdge {
	p := serve.Parts{
		Origin:   &edge.WildcardOrigin{},
		Cache:    edge.NewCache(4<<20, time.Minute, 4),
		Bare:     true,
		Registry: r.stackRegistry(name),
	}
	if defended {
		var det *anomaly.RequestDetector
		if model != nil {
			det = anomaly.NewRequestDetector(model)
			det.Clustered = true
		}
		p.Defend = defend.New(defend.Config{
			// Collapse earlier than the default: the experiment's storm
			// is small, and a live deployment would tune this to its
			// traffic.
			BustVariants: 6,
			Detector:     det,
		})
	}
	return newSimEdge(p)
}

// advTally accumulates one stack's serving outcomes over a labeled
// stream.
type advTally struct {
	attackReqs    int
	attackFetches int64
	benignReqs    int
	benignHits    int
	benignCached  int // benign GETs of cacheable objects (hit or miss)
	benignReject  int
	benignLat     []time.Duration
}

// tally replays one synthetic record against s. The request carries
// the record's identity (client, agent, host, full URL) so the defense
// sees the same stream the detectors would; the response's X-Cache
// header and the origin fetches it caused say what the edge did.
func (t *advTally) tally(s *simEdge, rec *logfmt.Record, isAttack bool) {
	status, xCache, fetches := s.serve(rec.Time, rec.Method, rec.URL, rec.UserAgent, rec.ClientID)
	if isAttack {
		t.attackReqs++
		t.attackFetches += fetches
		return
	}
	t.benignReqs++
	if status == http.StatusTooManyRequests {
		t.benignReject++
		return
	}
	t.benignLat = append(t.benignLat, advHitCost+time.Duration(fetches)*advFetchCost)
	if rec.Method == "GET" {
		switch xCache {
		case "HIT", "STALE":
			t.benignHits++
			t.benignCached++
		case "MISS":
			t.benignCached++
		}
	}
}

func (t *advTally) hitRate() float64 {
	if t.benignCached == 0 {
		return 0
	}
	return float64(t.benignHits) / float64(t.benignCached)
}

func (t *advTally) p99() time.Duration {
	if len(t.benignLat) == 0 {
		return 0
	}
	sort.Slice(t.benignLat, func(i, j int) bool { return t.benignLat[i] < t.benignLat[j] })
	return t.benignLat[(len(t.benignLat)-1)*99/100]
}

// adversarialConfig is a small synthetic capture the four stacks replay
// in full: 6 minutes, 9000 benign requests, 12 domains so per-domain
// traffic is dense enough for the attack populations to matter.
func (r *Runner) adversarialConfig(attack synth.AttackConfig) synth.Config {
	cfg := synth.ShortTermConfig(r.cfg.Seed+7, 1)
	cfg.Duration = 6 * time.Minute
	cfg.TargetRequests = 9000
	cfg.Domains = 12
	cfg.Attack = attack
	return cfg
}

// advAttack is the base attack mix: half of benign volume, spread over
// the four populations, starting after a 90-second clean baseline so
// the detectors have benign history.
func advAttack(mult float64) synth.AttackConfig {
	return synth.AttackConfig{
		CacheBustShare: 0.20 * mult,
		FlashShare:     0.10 * mult,
		BotShare:       0.10 * mult,
		AmplifyShare:   0.10 * mult,
		FlashObjects:   4,
		Start:          90 * time.Second,
	}
}

// trainAdvModel fits the ngram request model on the benign stream's
// clustered vocabulary, exactly as the §5.1 anomaly application does —
// the defended stack's request detector scores live traffic against it.
func trainAdvModel(recs []logfmt.Record) *ngram.Model {
	seq := ngram.NewSequencer()
	seq.Filter = logfmt.JSONOnly
	seq.Clustered = true
	for i := range recs {
		seq.Observe(&recs[i])
	}
	train, _ := seq.Split()
	model := ngram.NewModel(1)
	for _, s := range train {
		model.Train(s)
	}
	return model
}

// Adversarial runs the detect-and-defend robustness experiment: one
// benign stream is generated twice more with an overlaid attack (base
// and doubled intensity), ground-truth labeled by subtraction
// (synth.AttackMask), and each combined stream is replayed against an
// undefended and a defended edge on the records' own clock. The
// defended edge must hold attack-attributed origin amplification under
// AdversarialCeiling while the undefended edge demonstrates why the
// defense exists: amplification several times higher, and origin load
// that scales with the attacker's budget.
func (r *Runner) Adversarial(w io.Writer) (AdversarialResult, error) {
	w = out(w)
	benign, err := core.Collect(core.SynthSource(r.adversarialConfig(synth.AttackConfig{})))
	if err != nil {
		return AdversarialResult{}, fmt.Errorf("experiments: generating benign stream: %w", err)
	}
	combined1, err := core.Collect(core.SynthSource(r.adversarialConfig(advAttack(1))))
	if err != nil {
		return AdversarialResult{}, fmt.Errorf("experiments: generating attack stream: %w", err)
	}
	combined2, err := core.Collect(core.SynthSource(r.adversarialConfig(advAttack(2))))
	if err != nil {
		return AdversarialResult{}, fmt.Errorf("experiments: generating doubled attack stream: %w", err)
	}
	mask1, err := synth.AttackMask(combined1, benign)
	if err != nil {
		return AdversarialResult{}, err
	}
	mask2, err := synth.AttackMask(combined2, benign)
	if err != nil {
		return AdversarialResult{}, err
	}
	model := trainAdvModel(benign)

	// Only the base-intensity defended stack's counters outlive its
	// replay; each stack itself is garbage once its tally is taken.
	var inst *defend.Instrumentation
	runStack := func(defended bool, name string, recs []logfmt.Record, mask []bool) advTally {
		s := r.newAdvStack(defended, name, model)
		var t advTally
		for i := range recs {
			t.tally(s, &recs[i], mask[i])
		}
		if name == "defended" {
			inst = s.DefendObs
		}
		return t
	}

	u1 := runStack(false, "undefended", combined1, mask1)
	d1 := runStack(true, "defended", combined1, mask1)
	u2 := runStack(false, "undefended-2x", combined2, mask2)
	d2 := runStack(true, "defended-2x", combined2, mask2)

	res := AdversarialResult{
		BenignRequests:          len(benign),
		AttackRequests:          u1.attackReqs,
		AttackRequests2x:        u2.attackReqs,
		UndefendedAttackFetches: u1.attackFetches,
		DefendedAttackFetches:   d1.attackFetches,
		UndefendedBenignHitRate: u1.hitRate(),
		DefendedBenignHitRate:   d1.hitRate(),
		UndefendedBenignP99:     u1.p99(),
		DefendedBenignP99:       d1.p99(),
		Ceiling:                 AdversarialCeiling,
	}
	if res.AttackRequests > 0 {
		res.UndefendedAmplification = float64(u1.attackFetches) / float64(u1.attackReqs)
		res.DefendedAmplification = float64(d1.attackFetches) / float64(d1.attackReqs)
	}
	if u1.attackFetches > 0 {
		res.UndefendedGrowth = float64(u2.attackFetches) / float64(u1.attackFetches)
	}
	if d1.attackFetches > 0 {
		res.DefendedGrowth = float64(d2.attackFetches) / float64(d1.attackFetches)
	}
	if d1.benignReqs > 0 {
		res.DefendedBenignRejectRate = float64(d1.benignReject) / float64(d1.benignReqs)
	}
	if inst != nil {
		res.Shed = inst.ShedAbuser.Value() + inst.ShedClientRate.Value() + inst.ShedClassRate.Value()
		res.Collapsed = inst.Collapsed.Value()
		res.NegativeHits = inst.NegativeHits.Value()
		res.AnomalyFlags = inst.FanOutFlags.Value() + inst.AnomalousRequest.Value() + inst.AnomalousPeriod.Value()
	}
	res.CeilingOK = res.DefendedAmplification <= res.Ceiling
	res.StrictlyWorse = res.UndefendedAmplification > res.DefendedAmplification &&
		res.UndefendedGrowth > res.DefendedGrowth

	fmt.Fprintln(w, "Adversarial traffic and the detect-and-defend loop")
	fmt.Fprintf(w, "  %d benign + %d attack requests (cache-bust, flash, bots, amplification)\n",
		res.BenignRequests, res.AttackRequests)
	fmt.Fprintf(w, "  origin amplification (attack fetches / attack requests):\n")
	fmt.Fprintf(w, "    undefended: %.3f   defended: %.3f   ceiling: %.2f\n",
		res.UndefendedAmplification, res.DefendedAmplification, res.Ceiling)
	fmt.Fprintf(w, "  attack doubled: undefended origin fetches grow %.2fx, defended %.2fx\n",
		res.UndefendedGrowth, res.DefendedGrowth)
	fmt.Fprintf(w, "  benign traffic: hit rate %s -> %s, modeled p99 %s -> %s, rejected %s\n",
		pct(res.UndefendedBenignHitRate), pct(res.DefendedBenignHitRate),
		res.UndefendedBenignP99, res.DefendedBenignP99,
		pct(res.DefendedBenignRejectRate))
	fmt.Fprintf(w, "  defense actions: %d shed, %d collapsed, %d negative hits, %d anomaly flags\n",
		res.Shed, res.Collapsed, res.NegativeHits, res.AnomalyFlags)
	verdict := "amplification bounded, strictly worse undefended"
	if !res.CeilingOK || !res.StrictlyWorse {
		verdict = "VIOLATED"
	}
	compareRow(w, "defense holds the amplification ceiling", "qualitative", verdict)
	return res, nil
}
