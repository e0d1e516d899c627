package cluster

import (
	"context"
	"time"

	"flatdd/internal/obs"
	"flatdd/internal/serve/client"
)

// Replica health states. The state machine is driven by the periodic
// /healthz probes: every successful probe resets a replica to alive;
// consecutive failures walk it alive → suspect (after suspectAfter) →
// dead (after deadAfter). Only the suspect→dead edge triggers failover —
// a suspect replica keeps its hash ranges and its jobs, so a transient
// stall (GC pause, one dropped probe) never reshuffles the cluster.
const (
	ReplicaAlive   = "alive"
	ReplicaSuspect = "suspect"
	ReplicaDead    = "dead"
)

// Transition is one membership state change, kept per replica for the
// /healthz view (bounded ring of the most recent maxTransitions).
type Transition struct {
	From string    `json:"from"`
	To   string    `json:"to"`
	At   time.Time `json:"at"`
	// Err is the probe error that drove a downward transition ("" on
	// recovery).
	Err string `json:"err,omitempty"`
}

const maxTransitions = 16

// replica is the coordinator's record of one serve process. Probe/state
// fields are guarded by the coordinator's mu; the client and histogram
// are internally synchronized.
type replica struct {
	name   string
	url    string
	client *client.Client
	rpcLat *obs.Histogram // cluster.replica.<name>.rpc.ns

	state       string
	fails       int // consecutive probe failures
	probes      int64
	probeFails  int64
	lastErr     string
	transitions []Transition
}

// transitionLocked records a state change. Caller holds Coordinator.mu.
func (r *replica) transitionLocked(to, errMsg string) Transition {
	tr := Transition{From: r.state, To: to, At: time.Now(), Err: errMsg}
	r.state = to
	r.transitions = append(r.transitions, tr)
	if len(r.transitions) > maxTransitions {
		r.transitions = r.transitions[len(r.transitions)-maxTransitions:]
	}
	return tr
}

// probeLoop drives the membership state machine until Shutdown.
func (c *Coordinator) probeLoop() {
	defer c.probeWG.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.probeAll()
		}
	}
}

// probeAll probes every replica concurrently (one slow replica must not
// delay the others' liveness verdicts) and applies the state machine.
func (c *Coordinator) probeAll() {
	type verdict struct {
		r   *replica
		err error
	}
	results := make(chan verdict, len(c.order))
	for _, name := range c.order {
		r := c.replicas[name]
		go func() {
			results <- verdict{r, c.probe(r)}
		}()
	}
	for range c.order {
		v := <-results
		c.applyProbe(v.r, v.err)
	}
}

// probe performs one bounded /healthz round trip. The replica-down fault
// point intercepts it first, so chaos tests can drive membership without
// killing processes.
func (c *Coordinator) probe(r *replica) error {
	if err := c.downErr(r); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	_, err := r.client.Health(ctx)
	return err
}

// applyProbe advances the state machine with one probe result and fires
// failover on the suspect→dead edge.
func (c *Coordinator) applyProbe(r *replica, err error) {
	var dead *replica
	c.mu.Lock()
	r.probes++
	c.met.probes.Inc()
	if err == nil {
		r.fails = 0
		r.lastErr = ""
		if r.state != ReplicaAlive {
			tr := r.transitionLocked(ReplicaAlive, "")
			c.log.Info("replica recovered", "replica", r.name, "from", tr.From)
			c.met.revived.Inc()
		}
	} else {
		r.fails++
		r.lastErr = err.Error()
		c.met.probeFails.Inc()
		r.probeFails++
		switch {
		case r.fails >= deadAfter && r.state != ReplicaDead:
			r.transitionLocked(ReplicaDead, err.Error())
			c.log.Warn("replica dead", "replica", r.name, "failures", r.fails, "error", err)
			dead = r
		case r.fails >= suspectAfter && r.state == ReplicaAlive:
			r.transitionLocked(ReplicaSuspect, err.Error())
			c.log.Warn("replica suspect", "replica", r.name, "failures", r.fails, "error", err)
		}
	}
	c.updateMembershipGaugesLocked()
	c.mu.Unlock()
	if dead != nil {
		c.failover(dead.name)
	}
}

// updateMembershipGaugesLocked refreshes the cluster.replicas.* gauges
// and each replica's per-replica state gauge (0 alive, 1 suspect,
// 2 dead). Caller holds mu.
func (c *Coordinator) updateMembershipGaugesLocked() {
	var alive, suspect, dead int64
	for _, name := range c.order {
		r := c.replicas[name]
		v := int64(0)
		switch r.state {
		case ReplicaAlive:
			alive++
		case ReplicaSuspect:
			suspect++
			v = 1
		case ReplicaDead:
			dead++
			v = 2
		}
		c.reg.Gauge("cluster.replica." + r.name + ".state").Set(v)
	}
	c.met.alive.Set(alive)
	c.met.suspect.Set(suspect)
	c.met.dead.Set(dead)
}

// routableLocked reports whether the coordinator may send work to a
// replica right now. Caller holds mu.
func (r *replica) routableLocked() bool { return r.state != ReplicaDead }
