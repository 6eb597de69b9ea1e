package apps

import (
	"testing"

	"secureblox/internal/core"
	"secureblox/internal/engine"
	"secureblox/internal/seccrypto"
	"secureblox/internal/udf"
)

// TestDeltaPlansProbeEveryJoin is the semi-naïve plan gate beside the
// full-scan guards: in every delta plan of the path-vector and hash-join
// programs, under every policy variant, each match after the leading delta
// scan must read through a bound column or a functional lookup, so a delta
// never costs a scan of a stored relation.
//
// Two exemptions, both named:
//   - Delta plans on set-up facts. Node assembly asserts self[] and the
//     hash join's metadata (initiator[], prin_minhash, prin_maxhash) once,
//     before any input, so these plans run once over empty input relations.
//   - The hash-range step of hash join's repartition rules: after a(E1, E2)
//     or b(E3, E2) and sha1(E2, H), prin_minhash[U]=Lo has no bound column
//     (H >= Lo is a range test, not a join key), so each delta tuple scans
//     the per-principal range table, one tuple per node.
func TestDeltaPlansProbeEveryJoin(t *testing.T) {
	setupPreds := map[string]bool{"self": true, "initiator": true, "prin_minhash": true, "prin_maxhash": true}
	reg, err := udf.NewRegistry(seccrypto.NewKeyStore("plan"), nil)
	if err != nil {
		t.Fatal(err)
	}
	hashRange := 0
	for _, app := range []struct{ name, query string }{
		{"pathvector", PathVectorQuery},
		{"hashjoin", HashJoinQuery},
	} {
		for _, pol := range policyVariants() {
			res, err := core.CompileProgram(pol, app.query, nil)
			if err != nil {
				t.Fatalf("%s %+v: compile: %v", app.name, pol, err)
			}
			plans, err := engine.NewWorkspace(reg).PlanProgram(res.Program)
			if err != nil {
				t.Fatalf("%s %+v: plan: %v", app.name, pol, err)
			}
			for _, p := range plans {
				if p.Err != nil {
					t.Fatalf("%s %+v: rule %s: %v", app.name, pol, p.Src, p.Err)
				}
				for _, dp := range p.Deltas {
					if !dp[0].Delta {
						t.Fatalf("%s %+v: delta plan does not open with its delta step: rule %s", app.name, pol, p.Src)
					}
					if setupPreds[dp[0].Pred] {
						continue
					}
					for _, s := range dp[1:] {
						if s.Kind != engine.StepMatch || s.Delta || len(s.BoundCols) > 0 || s.FnLookup {
							continue
						}
						if app.name == "hashjoin" && s.Pred == "prin_minhash" {
							hashRange++
							continue
						}
						t.Errorf("%s %+v: delta on %s scans %s in rule %s", app.name, pol, dp[0].Atom, s.Atom, p.Src)
					}
				}
			}
		}
	}
	if hashRange == 0 {
		t.Error("the hash-range exemption never applied: the gate no longer sees hash join's repartition rules")
	}
}

// policyVariants lists every policy configuration a deployment can select.
func policyVariants() []core.PolicyConfig {
	var out []core.PolicyConfig
	for _, auth := range []core.AuthScheme{core.AuthNone, core.AuthHMAC, core.AuthRSA} {
		for _, batch := range []bool{false, true} {
			if batch && auth != core.AuthRSA {
				continue
			}
			for _, enc := range []bool{false, true} {
				for _, authz := range []bool{false, true} {
					for _, del := range []core.Delegation{core.DelegateAll, core.DelegateTrustworthy, core.DelegatePerPred, core.DelegateNone} {
						out = append(out, core.PolicyConfig{Auth: auth, BatchSign: batch, Encrypt: enc, Authorization: authz, Delegation: del})
					}
				}
			}
		}
	}
	return out
}
