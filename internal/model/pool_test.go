package model

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"iotsan/internal/checker"
)

// TestFinishedModelCollectable is the runtime oracle of the pool rule
// (internal/analysis/INVARIANTS.md): the model's and the checker's free
// lists are process-wide and no pooled item references its last owner,
// so once a search has finished and every reference to its model is
// dropped, one GC frees the model. The runtime keeps each pool used
// since the last GC reachable, so a pool embedded in the Model or the
// checker engine, or a pooled executor bound to the model, would keep
// the model alive through that first GC.
func TestFinishedModelCollectable(t *testing.T) {
	cases := []struct {
		name  string
		build func(*testing.T) *Model
		opts  checker.Options
	}{
		{"dfs", func(t *testing.T) *Model {
			return cascadeModelOpts(t, Options{MaxEvents: 3, Incremental: true})
		}, checker.Options{MaxDepth: 100}},
		{"steal+symmetry", func(t *testing.T) *Model {
			return symTestModel(t, Options{Incremental: true})
		}, checker.Options{MaxDepth: 100, Strategy: checker.StrategySteal, Workers: 2, Symmetry: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// No GC may run but the one under test.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			freed := make(chan struct{})
			func() {
				m := tc.build(t)
				runtime.SetFinalizer(m, func(*Model) { close(freed) })
				if res := checker.Run(m.System(), tc.opts); res.StatesExplored < 2 || res.Truncated {
					t.Fatalf("search explored %d states (truncated %v)", res.StatesExplored, res.Truncated)
				}
			}()
			runtime.GC()
			select {
			case <-freed:
			case <-time.After(5 * time.Second):
				t.Fatal("finished model still reachable after one GC")
			}
		})
	}
}

// TestCloneIntoForeignState: the state free-list is shared by every
// model, so Clone may draw a dead state recycled by a model of another
// shape and hand it to cloneInto, which resizes it. The clone must
// encode and digest exactly like a fresh one, whether the recycled
// state is larger, smaller or the same shape.
func TestCloneIntoForeignState(t *testing.T) {
	big := symTestModel(t, Options{Incremental: true}) // 5 apps, 8 devices
	small := cascadeModelOpts(t, Options{MaxEvents: 3, Incremental: true})
	if len(big.Apps) == len(small.Apps) {
		t.Fatal("models must differ in app count")
	}
	// reached returns a state two transitions from the initial one, so
	// it carries app state and a partly dirty digest cache.
	reached := func(m *Model, pick int) *State {
		s := m.Initial()
		for i := 0; i < 2; i++ {
			trs := m.Expand(s)
			if len(trs) == 0 {
				t.Fatal("no successors")
			}
			s = trs[pick%len(trs)].Next.(*State)
		}
		return s
	}
	models := map[string]*Model{"big": big, "small": small}
	for _, srcName := range []string{"big", "small"} {
		for _, deadName := range []string{"big", "small"} {
			t.Run(srcName+"<-"+deadName, func(t *testing.T) {
				m := models[srcName]
				src, dead := reached(m, 0), reached(models[deadName], 1)
				got, want := src.cloneInto(dead), src.cloneFresh()
				if ge, we := got.Encode(nil), want.Encode(nil); !bytes.Equal(ge, we) {
					t.Fatalf("encoding differs:\n got %x\nwant %x", ge, we)
				}
				g1, g2 := m.IncrementalDigest(got, false)
				w1, w2 := m.IncrementalDigest(want, false)
				if g1 != w1 || g2 != w2 {
					t.Fatalf("incremental digest differs: got %x/%x want %x/%x", g1, g2, w1, w2)
				}
				// The clone must be a live state of m: expanding it
				// matches expanding the fresh clone.
				gt, wt := m.Expand(got), m.Expand(want)
				if len(gt) != len(wt) {
					t.Fatalf("%d successors, want %d", len(gt), len(wt))
				}
				for i := range gt {
					if ge, we := gt[i].Next.(*State).Encode(nil), wt[i].Next.(*State).Encode(nil); !bytes.Equal(ge, we) {
						t.Fatalf("successor %d differs", i)
					}
				}
			})
		}
	}
}
