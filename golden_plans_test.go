// Golden plans: SHA-256 digests of the JSON-encoded plans the analyzer
// produces for every suite test's preparation trace and for generated SC
// and TSO corpora. The digests were recorded from the string-keyed
// analyzer that preceded the dense-ID core, so they pin the plans byte
// for byte across analyzer rewrites.
package waffle_test

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"testing"

	"waffle/internal/apps"
	"waffle/internal/core"
	"waffle/internal/genprog"
	"waffle/internal/trace"
)

// eachSuitePrepTrace records the seed-1 preparation trace of every suite
// test, in apps.Registry() order, and hands each to fn: 935 traces, never
// all held at once.
func eachSuitePrepTrace(tb testing.TB, fn func(*trace.Trace)) {
	tb.Helper()
	for _, app := range apps.Registry() {
		for _, test := range app.Tests {
			fn(prepTraceOf(tb, test, 1))
		}
	}
}

// genPrepTrace generates corpus program i (sizes cycle small, medium,
// large) and records its preparation trace under the seed the
// differential harness uses.
func genPrepTrace(tb testing.TB, seed int64, i int, tso bool) *trace.Trace {
	tb.Helper()
	size := genprog.Size(i % 3)
	cfg := genprog.SizeConfig(seed+int64(i), size)
	if tso {
		cfg = genprog.TSOSizeConfig(seed+int64(i), size)
	}
	p := genprog.Generate(cfg)
	wf := core.NewWaffle(core.Options{})
	wf.SetLabel(p.Name())
	res := p.Prog().Execute(cfg.Seed*31+7, wf.HookForRun(1, nil))
	if res.Err != nil || res.Fault != nil {
		tb.Fatalf("%s: preparation run: err=%v fault=%v", p.Name(), res.Err, res.Fault)
	}
	wf.FinishPreparation(&core.RunReport{Run: 1, End: res.End})
	return wf.PrepTrace()
}

// planDigest hashes the concatenated JSON encodings of the plans Analyze
// produces for each trace under each option set, in that nesting order.
type planDigest struct {
	tb      testing.TB
	h       hash.Hash
	n       int
	optSets []core.Options
}

func newPlanDigest(tb testing.TB, optSets ...core.Options) *planDigest {
	return &planDigest{tb: tb, h: sha256.New(), optSets: optSets}
}

func (d *planDigest) add(tr *trace.Trace) {
	d.n++
	for _, opts := range d.optSets {
		if err := core.Analyze(tr, opts).WriteJSON(d.h); err != nil {
			d.tb.Fatalf("%s: encode plan: %v", tr.Label, err)
		}
	}
}

func (d *planDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// The digests below were recorded from the string-keyed analyzer. A
// mismatch means some plan changed; bisect with a per-trace diff of
// Plan.WriteJSON against the recording commit.
func TestGoldenPlanDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("records ~1100 preparation traces")
	}
	suite := newPlanDigest(t, core.Options{}, core.Options{DisableParentChild: true}, core.Options{TSO: true})
	eachSuitePrepTrace(t, suite.add)
	sc, tso := newPlanDigest(t, core.Options{}), newPlanDigest(t, core.Options{TSO: true})
	for i := 0; i < 100; i++ {
		sc.add(genPrepTrace(t, 1000, i, false))
		tso.add(genPrepTrace(t, 9200, i, true))
	}
	for _, c := range []struct {
		name string
		d    *planDigest
		want string
	}{
		{"suite", suite, "c770b044d7299ad687d35b868120f1253d51adb71adafabbf95b5f45af864dd7"},
		{"genprog-sc-mixed-100", sc, "17d991b7bfe5cf536036c6d54c094cdbd41c69ad789efa4bfe04b0f6ec1dec0c"},
		{"genprog-tso-mixed-100", tso, "aafd429e443540a4b719a548446ff73d31bd20ef174b5df423676991a40dc5d9"},
	} {
		if got := c.d.sum(); got != c.want {
			t.Errorf("%s (%d traces): plan digest %s, want %s", c.name, c.d.n, got, c.want)
		}
	}
}
