package main

import (
	"fmt"
	"strings"

	"nurapid/internal/cacti"
	"nurapid/internal/memsys"
	"nurapid/internal/sim"
	"nurapid/internal/workload"
)

// namedOrg is an organization under test with the per-config metric its
// host time is reported under ("" when only the family total is).
type namedOrg struct {
	org    sim.Organization
	metric string
}

// family names the package implementing an organization, which is the
// layer its per-layer metrics are reported under.
func family(org sim.Organization) string {
	switch {
	case strings.HasPrefix(org.Key, "nurapid-"):
		return "nurapid"
	case strings.HasPrefix(org.Key, "dnuca-"):
		return "nuca"
	default:
		return "uca"
	}
}

// l2Agg sums one family's host time and simulated counts over the
// simulations of a traced run.
type l2Agg struct {
	host    layer             // host time of the organization's accesses
	factory layer             // host time of its construction
	perCfg  map[string]*layer // host time by per-config metric

	accesses, hits, group0 int64
	demotions, promotions  int64
	portWait               int64
	l2Misses, l3Hits       int64
	bankAccesses           int64
	baseAccesses           int64 // accesses of the base L2/L3 hierarchy

	highAccesses, highDemotions int64
}

// l2Aggs holds one l2Agg per family.
type l2Aggs map[string]*l2Agg

func (a l2Aggs) get(fam string) *l2Agg {
	g, ok := a[fam]
	if !ok {
		g = &l2Agg{perCfg: map[string]*layer{}}
		a[fam] = g
	}
	return g
}

// absorb adds one simulation's organization: its simulated counts, and
// the host time in host (the decorator's own, or a whole replay's).
func (a l2Aggs) absorb(no namedOrg, app workload.App, ll memsys.LowerLevel, host *layer) {
	g := a.get(family(no.org))
	g.host.add(host)
	if no.metric != "" {
		l, ok := g.perCfg[no.metric]
		if !ok {
			l = &layer{}
			g.perCfg[no.metric] = l
		}
		l.add(host)
	}
	c, d := ll.Counters(), ll.Distribution()
	acc := c.Get("accesses")
	g.accesses += acc
	g.hits += d.Total() - d.MissCount()
	if d.NumCategories() > 0 {
		g.group0 += d.HitCount(0)
	}
	g.demotions += c.Get("demotions")
	g.promotions += c.Get("promotions")
	g.portWait += c.Get("port_wait_cycles")
	g.l2Misses += c.Get("l2_misses")
	g.l3Hits += c.Get("l3_hits")
	g.bankAccesses += c.Get("bank_accesses")
	if no.org.Key == sim.Base().Key {
		g.baseAccesses += acc
	}
	if app.Class == workload.HighLoad {
		g.highAccesses += acc
		g.highDemotions += c.Get("demotions")
	}
}

// emit writes the families' per-layer metrics into m.
func (a l2Aggs) emit(m metricSet) {
	for fam, g := range a {
		m[fam+".ns_per_access"] = g.host.nsPerCall()
		for name, l := range g.perCfg {
			m[name] = l.nsPerCall()
		}
		switch fam {
		case "nurapid":
			m["nurapid.factory_ns"] = g.factory.nsPerCall()
			m["nurapid.hit_ratio"] = ratio(g.hits, g.accesses)
			m["nurapid.dgroup0_hit_frac"] = ratio(g.group0, g.hits)
			m["nurapid.demotions_per_access"] = ratio(g.demotions, g.accesses)
			m["nurapid.demotions_per_access.high"] = ratio(g.highDemotions, g.highAccesses)
			m["nurapid.promotions_per_access"] = ratio(g.promotions, g.accesses)
			m["nurapid.port_wait_cycles_per_access"] = ratio(g.portWait, g.accesses)
		case "nuca":
			m["nuca.hit_ratio"] = ratio(g.hits, g.accesses)
			m["nuca.banks_per_access"] = ratio(g.bankAccesses, g.accesses)
		case "uca":
			// The L2/L3 ratios come from the base hierarchy; the ideal
			// organization has no second level and counts no l2_misses.
			m["uca.l2_hit_ratio"] = 1 - ratio(g.l2Misses, g.baseAccesses)
			m["uca.l3_hit_ratio"] = ratio(g.l3Hits, g.l2Misses)
		}
	}
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// preflight builds every organization once, so a configuration that
// cannot be built fails set-up rather than a timed repetition.
func preflight(model *cacti.Model, orgs []namedOrg) error {
	for _, no := range orgs {
		ll := no.org.Factory(model, memsys.NewMemory(no.org.BlockBytes))
		if ll == nil || ll.Name() == "" {
			return fmt.Errorf("organization %s built nothing", no.org.Key)
		}
	}
	return nil
}

// resolveApps looks up application models by name.
func resolveApps(names []string) ([]workload.App, error) {
	apps := make([]workload.App, 0, len(names))
	for _, n := range names {
		a, ok := workload.ByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown application %q", n)
		}
		apps = append(apps, a)
	}
	return apps, nil
}
