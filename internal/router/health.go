// Shard health state machine for the scatter-gather tier: the router's one
// notion of shard health. A bare consecutive-failure circuit would flap — a
// cooldown expires, one probe query hits a still-sick shard, the circuit
// re-opens, and real traffic keeps paying for the probes — so each shard
// walks explicit states instead —
//
//	healthy → degraded → quarantined → rejoining → healthy
//
// driven by BOTH active /healthz probing and passive per-request outcome
// signals (latency is not one: a slow shard that answers is not sick), with
// hysteresis (consecutive-signal thresholds) so alternating pass/fail
// never oscillates the state, and a controlled
// half-open rejoin: a quarantined shard must pass consecutive probes after
// a backoff dwell, is then re-warmed (model cache first, via /warm), and
// only graduates back to healthy after a trickle of real traffic succeeds.
package router

import (
	"context"
	"sync"
	"time"
)

// ShardState is a shard's position in the health state machine. The
// numeric values are the accelscore_router_shard_state gauge encoding.
type ShardState int

const (
	// ShardHealthy: full traffic.
	ShardHealthy ShardState = 0
	// ShardDegraded: still serving full traffic (its partitions would
	// otherwise all reroute), but flagged: the hysteresis step before
	// quarantine, which more consecutive failures take it to.
	ShardDegraded ShardState = 1
	// ShardQuarantined: no traffic at all; only probes may rehabilitate it.
	ShardQuarantined ShardState = 2
	// ShardRejoining: warmed and admitting a trickle of real traffic; one
	// failure re-quarantines it with a doubled backoff.
	ShardRejoining ShardState = 3
)

// String returns the state's label spelling.
func (s ShardState) String() string {
	switch s {
	case ShardDegraded:
		return "degraded"
	case ShardQuarantined:
		return "quarantined"
	case ShardRejoining:
		return "rejoining"
	default:
		return "healthy"
	}
}

// HealthConfig tunes the shard health state machine. Zero values take the
// defaults noted per field.
type HealthConfig struct {
	// ProbeInterval is the active /healthz probe cadence; 0 disables the
	// probe loop (passive signals still drive the state machine).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (default 1s).
	ProbeTimeout time.Duration
	// FailThreshold consecutive failures demote healthy → degraded
	// (default 2; 1 makes a single failure degrade).
	FailThreshold int
	// QuarantineThreshold consecutive failures while degraded quarantine
	// the shard (default 3).
	QuarantineThreshold int
	// PassThreshold consecutive successes promote degraded → healthy
	// (default 2).
	PassThreshold int
	// RejoinProbes consecutive probe passes (after the backoff dwell) move
	// quarantined → rejoining (default 2).
	RejoinProbes int
	// RejoinTrickle successful real sub-queries graduate rejoining →
	// healthy (default 4).
	RejoinTrickle int
	// TrickleConcurrency bounds concurrent real sub-queries while
	// rejoining (default 1).
	TrickleConcurrency int
	// QuarantineBackoff is the minimum quarantine dwell before rejoin
	// probes count (default 500ms); it doubles on each re-quarantine up
	// to MaxBackoff (default 8s).
	QuarantineBackoff time.Duration
	MaxBackoff        time.Duration

	// now is a test hook (default time.Now).
	now func() time.Time
}

func (c *HealthConfig) fill() {
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 2
	}
	if c.QuarantineThreshold <= 0 {
		c.QuarantineThreshold = 3
	}
	if c.PassThreshold <= 0 {
		c.PassThreshold = 2
	}
	if c.RejoinProbes <= 0 {
		c.RejoinProbes = 2
	}
	if c.RejoinTrickle <= 0 {
		c.RejoinTrickle = 4
	}
	if c.TrickleConcurrency <= 0 {
		c.TrickleConcurrency = 1
	}
	if c.QuarantineBackoff <= 0 {
		c.QuarantineBackoff = 500 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 8 * time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
}

// shardFSM is one shard's health state. All fields are guarded by mu.
type shardFSM struct {
	mu            sync.Mutex
	state         ShardState
	fails         int // consecutive failure signals
	passes        int // consecutive success signals
	trickleOK     int // successful real sub-queries while rejoining
	inFlight      int // acquired-but-unreleased attempts
	warming       bool
	quarantinedAt time.Time
	backoff       time.Duration
	lastProbe     time.Time
	lastProbeOK   bool
	lastProbeErr  string
	transitions   int
}

// ShardHealthSnapshot is one shard's health, for /healthz and tests.
type ShardHealthSnapshot struct {
	State        ShardState    `json:"-"`
	StateName    string        `json:"state"`
	InFlight     int           `json:"in_flight"`
	Transitions  int           `json:"transitions"`
	LastProbe    time.Time     `json:"last_probe,omitzero"`
	LastProbeOK  bool          `json:"last_probe_ok"`
	LastProbeErr string        `json:"last_probe_error,omitempty"`
	Backoff      time.Duration `json:"-"`
}

// HealthManager runs the health state machine for every shard. The
// dispatcher consults it before every attempt and feeds it the attempt's
// outcome as a passive signal; optionally it runs an active probe loop.
type HealthManager struct {
	cfg     HealthConfig
	shards  []*shardFSM
	probe   func(ctx context.Context, shard int) error
	warm    func(ctx context.Context, shard int)
	onState func(shard int, s ShardState)

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// NewHealthManager builds the manager for n shards. probe actively checks
// one shard (nil disables probing), warm pre-warms a shard's model cache
// before its rejoin trickle (nil skips warming), and onState observes every
// state transition (metrics gauge; may be nil).
func NewHealthManager(n int, cfg HealthConfig,
	probe func(ctx context.Context, shard int) error,
	warm func(ctx context.Context, shard int),
	onState func(shard int, s ShardState)) *HealthManager {
	cfg.fill()
	m := &HealthManager{
		cfg:     cfg,
		shards:  make([]*shardFSM, n),
		probe:   probe,
		warm:    warm,
		onState: onState,
		stop:    make(chan struct{}),
	}
	for i := range m.shards {
		m.shards[i] = &shardFSM{}
	}
	return m
}

// Start launches the active probe loop (no-op when ProbeInterval is 0 or
// no probe function was given).
func (m *HealthManager) Start() {
	if m == nil || m.cfg.ProbeInterval <= 0 || m.probe == nil {
		return
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(m.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.ProbeAll()
			}
		}
	}()
}

// Close stops the probe loop and waits for it.
func (m *HealthManager) Close() {
	if m == nil {
		return
	}
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
}

// ProbeAll probes every shard once, concurrently, and feeds the outcomes
// into the state machine.
func (m *HealthManager) ProbeAll() {
	if m.probe == nil {
		return
	}
	var wg sync.WaitGroup
	for i := range m.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), m.cfg.ProbeTimeout)
			defer cancel()
			m.NoteProbe(i, m.probe(ctx, i))
		}(i)
	}
	wg.Wait()
}

// NoteProbe feeds one active probe outcome into shard i's state machine.
func (m *HealthManager) NoteProbe(i int, err error) {
	f := m.shards[i]
	f.mu.Lock()
	f.lastProbe = m.cfg.now()
	f.lastProbeOK = err == nil
	if err != nil {
		f.lastProbeErr = err.Error()
	} else {
		f.lastProbeErr = ""
	}
	f.mu.Unlock()
	m.note(i, err == nil, true)
}

// State returns shard i's current state.
func (m *HealthManager) State(i int) ShardState {
	f := m.shards[i]
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.state
}

// Snapshot returns shard i's health for /healthz.
func (m *HealthManager) Snapshot(i int) ShardHealthSnapshot {
	f := m.shards[i]
	f.mu.Lock()
	defer f.mu.Unlock()
	return ShardHealthSnapshot{
		State:        f.state,
		StateName:    f.state.String(),
		InFlight:     f.inFlight,
		Transitions:  f.transitions,
		LastProbe:    f.lastProbe,
		LastProbeOK:  f.lastProbeOK,
		LastProbeErr: f.lastProbeErr,
		Backoff:      f.backoff,
	}
}

// Transitions returns shard i's lifetime state-transition count (the
// anti-flap tests assert it stays bounded).
func (m *HealthManager) Transitions(i int) int {
	f := m.shards[i]
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.transitions
}

// signal is what one settled attempt tells the state machine.
type signal int

const (
	// signalNone: the attempt never meaningfully ran (the caller gave up,
	// or the shard refused the sub-query because its executor queue was
	// full).
	signalNone signal = iota
	// signalPass: the shard answered correctly.
	signalPass
	// signalFail: the shard failed the attempt.
	signalFail
)

// acquire reports whether shard may take one sub-query now: quarantined
// shards (and shards mid rejoin-warm) refuse traffic and rejoining shards
// admit a bounded trickle. A true return must be paired with exactly one
// release.
func (m *HealthManager) acquire(shard int) bool {
	f := m.shards[shard]
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case f.state == ShardQuarantined:
		return false
	case f.state == ShardRejoining && (f.warming || f.inFlight >= m.cfg.TrickleConcurrency):
		return false
	}
	f.inFlight++
	return true
}

// release pairs an acquire, feeding the attempt's outcome back as a passive
// health signal.
func (m *HealthManager) release(shard int, s signal) {
	f := m.shards[shard]
	f.mu.Lock()
	if f.inFlight > 0 {
		f.inFlight--
	}
	f.mu.Unlock()
	if s != signalNone {
		m.note(shard, s == signalPass, false)
	}
}

// note runs one signal through shard i's state machine. fromProbe marks
// active probe signals (the only ones that can rehabilitate a quarantined
// shard, and ones that never count toward the rejoin trickle).
func (m *HealthManager) note(i int, ok, fromProbe bool) {
	f := m.shards[i]
	f.mu.Lock()
	prev := f.state
	needWarm := false
	switch f.state {
	case ShardHealthy:
		if ok {
			f.fails = 0
		} else {
			f.fails++
			if f.fails >= m.cfg.FailThreshold {
				f.state = ShardDegraded
				f.fails, f.passes = 0, 0
			}
		}
	case ShardDegraded:
		if ok {
			f.passes++
			f.fails = 0
			if f.passes >= m.cfg.PassThreshold {
				f.state = ShardHealthy
				f.fails, f.passes = 0, 0
			}
		} else {
			f.fails++
			f.passes = 0
			if f.fails >= m.cfg.QuarantineThreshold {
				m.quarantineLocked(f)
			}
		}
	case ShardQuarantined:
		// Only probes rehabilitate, and only after the backoff dwell.
		if !fromProbe {
			break
		}
		if !ok {
			f.passes = 0
			break
		}
		if m.cfg.now().Sub(f.quarantinedAt) < f.backoff {
			break
		}
		f.passes++
		if f.passes >= m.cfg.RejoinProbes {
			f.state = ShardRejoining
			f.fails, f.passes, f.trickleOK = 0, 0, 0
			f.warming = m.warm != nil
			needWarm = f.warming
		}
	case ShardRejoining:
		if !ok {
			// One failure during rejoin re-quarantines with a doubled
			// backoff — flapping shards pay exponentially for each flap.
			m.quarantineLocked(f)
			break
		}
		if fromProbe {
			break // probes never count toward the trickle
		}
		f.trickleOK++
		if f.trickleOK >= m.cfg.RejoinTrickle {
			f.state = ShardHealthy
			f.fails, f.passes, f.trickleOK = 0, 0, 0
			f.backoff = 0 // a clean rejoin resets the penalty
		}
	}
	next := f.state
	if next != prev {
		f.transitions++
	}
	f.mu.Unlock()

	if next != prev && m.onState != nil {
		m.onState(i, next)
	}
	if needWarm {
		// Warm-first rejoin: the trickle stays gated behind f.warming
		// until the shard's model cache is re-warmed.
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			m.warm(ctx, i)
			f.mu.Lock()
			f.warming = false
			f.mu.Unlock()
		}()
	}
}

// quarantineLocked moves f into quarantine, doubling its backoff (capped).
// Caller holds f.mu.
func (m *HealthManager) quarantineLocked(f *shardFSM) {
	f.state = ShardQuarantined
	f.fails, f.passes, f.trickleOK = 0, 0, 0
	f.quarantinedAt = m.cfg.now()
	switch {
	case f.backoff <= 0:
		f.backoff = m.cfg.QuarantineBackoff
	case f.backoff*2 > m.cfg.MaxBackoff:
		f.backoff = m.cfg.MaxBackoff
	default:
		f.backoff *= 2
	}
}
