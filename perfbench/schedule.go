package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"sacs/internal/core"
	"sacs/internal/serve"
)

// Everything a workload sends is drawn here from its seed, before the
// measured window starts: the program under test only ever sees the
// generated requests.

// stimulusNames is the fixed vocabulary of external stimuli. Keeping it
// small bounds how many knowledge-store keys ingest can create per agent.
var stimulusNames = []string{"ext/pressure", "ext/temp", "ext/queue", "ext/errors"}

func stimulus(rng *rand.Rand) core.Stimulus {
	return core.Stimulus{
		Name:   stimulusNames[rng.Intn(len(stimulusNames))],
		Source: "perfbench",
		Scope:  core.Public,
		Value:  20 + 5*rng.NormFloat64(),
	}
}

// ingestBatches draws n external stimuli for random agents, split into
// batches of at most size. Times are left unset: serve stamps them with
// the population's tick at enqueue.
func ingestBatches(rng *rand.Rand, agents, n, size int) [][]serve.IngestItem {
	var out [][]serve.IngestItem
	for n > 0 {
		k := min(size, n)
		b := make([]serve.IngestItem, k)
		for i := range b {
			b[i] = serve.IngestItem{To: rng.Intn(agents), Stim: stimulus(rng)}
		}
		out = append(out, b)
		n -= k
	}
	return out
}

// mixRequest is one scheduled request of serve-mixed.
type mixRequest struct {
	id   int64
	due  time.Duration // offset from the window start
	conn int
	kind opKind
	path string
	body []byte // POST body (ingest only)
}

// mixSchedule is serve-mixed's open-loop arrival schedule.
type mixSchedule struct {
	reqs     []mixRequest
	advances []time.Duration // due offsets of the Advance batches
}

// mixParams shapes the serve-mixed load.
type mixParams struct {
	window       time.Duration
	rate         float64 // requests per second, all connections together
	conns        int
	explainShare float64
	ingestShare  float64
	batch        int // stimuli per POST
	hot          int // agents a dashboard polls; most explains hit them
	hotShare     float64
	advanceEvery time.Duration
	pop          string
	agents       int
}

// newMixSchedule draws the request mix: Poisson arrivals at p.rate dealt
// round-robin to the connections, each a status read, an explain (mostly of
// the hot agents, so the explain cache gets hits) or an ingest batch.
// Advances are due on a fixed cadence, half a period in.
func newMixSchedule(seed int64, p mixParams) (mixSchedule, error) {
	rng := rand.New(rand.NewSource(seed))
	hot := rng.Perm(p.agents)[:p.hot]
	var s mixSchedule
	at := time.Duration(0)
	for i := int64(0); ; i++ {
		at += time.Duration(rng.ExpFloat64() / p.rate * float64(time.Second))
		if at >= p.window {
			break
		}
		r := mixRequest{id: i + 1, due: at, conn: int(i) % p.conns}
		switch u := rng.Float64(); {
		case u < p.explainShare:
			agent := rng.Intn(p.agents)
			if rng.Float64() < p.hotShare {
				agent = hot[rng.Intn(len(hot))]
			}
			r.kind = opExplain
			r.path = fmt.Sprintf("/populations/%s/agents/%d/explain", p.pop, agent)
		case u < p.explainShare+p.ingestShare:
			reqs := make([]serve.StimulusRequest, p.batch)
			for j := range reqs {
				st := stimulus(rng)
				reqs[j] = serve.StimulusRequest{To: rng.Intn(p.agents), Name: st.Name, Value: st.Value, Source: st.Source}
			}
			body, err := json.Marshal(reqs)
			if err != nil {
				return mixSchedule{}, err
			}
			r.kind = opIngest
			r.path = fmt.Sprintf("/populations/%s/stimuli", p.pop)
			r.body = body
		default:
			r.kind = opStatus
			r.path = "/populations/" + p.pop
		}
		s.reqs = append(s.reqs, r)
	}
	for at := p.advanceEvery / 2; at < p.window; at += p.advanceEvery {
		s.advances = append(s.advances, at)
	}
	return s, nil
}
