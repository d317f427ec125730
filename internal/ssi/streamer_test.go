package ssi

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/trustedcells/tcq/internal/faultplan"
	"github.com/trustedcells/tcq/internal/protocol"
)

// StreamBuild is the canonical first-step build over the chunked store.
// The contract under test: its partitions are the deposit-order windows of
// the committed store, and it stashes its build for the quarantine
// Repartition path like every other builder.

// streamTuples builds n distinct wire tuples.
func streamTuples(n int) []protocol.WireTuple {
	ws := make([]protocol.WireTuple, 0, n)
	for i := 0; i < n; i++ {
		b := byte('a' + i)
		ws = append(ws, protocol.WireTuple{
			Tag:        []byte{b},
			Ciphertext: []byte{b, b, b},
			Digest:     []byte{b ^ 0xff},
		})
	}
	return ws
}

func TestStreamerWindows(t *testing.T) {
	s := New()
	now := time.Unix(0, 0)
	if err := s.PostQuery(&protocol.QueryPost{ID: "q-str", PostedAt: now}, now); err != nil {
		t.Fatal(err)
	}
	all := streamTuples(10)
	const per = 4

	// Deposits that straddle the window boundaries.
	for _, batch := range [][]protocol.WireTuple{all[:3], all[3:5], all[5:9], all[9:]} {
		if _, _, err := deposit(s, "q-str", batch, now); err != nil {
			t.Fatal(err)
		}
	}

	// StreamBuild chunks the whole store in deposit order, trailing
	// partial included, and its concatenation is exactly the store.
	parts, _ := s.StreamBuild("q-str", per)
	if len(parts) != 3 || len(parts[0]) != per || len(parts[1]) != per || len(parts[2]) != 2 {
		t.Fatalf("StreamBuild shape = %v", partLens(parts))
	}
	if flat := slices.Concat(parts...); !reflect.DeepEqual(flat, all) {
		t.Fatalf("StreamBuild reordered the store:\ngot:  %v\nwant: %v", flat, all)
	}

	// The build is stashed: the quarantine retry re-issues it.
	if re, _ := s.Repartition("q-str"); !reflect.DeepEqual(re, parts) {
		t.Fatalf("Repartition does not re-issue the stream build:\ngot:  %v\nwant: %v", re, parts)
	}
}

func TestStreamerEmpty(t *testing.T) {
	s := New()
	now := time.Unix(0, 0)
	if err := s.PostQuery(&protocol.QueryPost{ID: "q-mt", PostedAt: now}, now); err != nil {
		t.Fatal(err)
	}
	if parts, _ := s.StreamBuild("q-mt", 4); parts != nil {
		t.Errorf("empty StreamBuild = %v, want nil", parts)
	}
	if parts, _ := s.StreamBuild("q-none", 4); parts != nil {
		t.Errorf("unknown query StreamBuild = %v, want nil", parts)
	}
	if re, _ := s.Repartition("q-mt"); re != nil {
		t.Errorf("empty build left a stash: %v", re)
	}
}

func TestShardedStreamer(t *testing.T) {
	s := NewSharded(4)
	now := time.Unix(0, 0)
	all := streamTuples(6)
	// Two queries on (very likely) different shards: builds must route by
	// query ID and never bleed across.
	for i, id := range []string{"q-a", "q-b"} {
		if err := s.PostQuery(&protocol.QueryPost{ID: id, PostedAt: now}, now); err != nil {
			t.Fatal(err)
		}
		dep := protocol.NewDeposit(id, "dev", 1, 0, all[i*3:i*3+3])
		if _, _, err := s.DepositEnvelope(id, dep, now); err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range []string{"q-a", "q-b"} {
		want := all[i*3 : i*3+3]
		parts, _ := s.StreamBuild(id, 3)
		if len(parts) != 1 || !reflect.DeepEqual(parts[0], want) {
			t.Errorf("%s StreamBuild = %v, want [%v]", id, parts, want)
		}
		if re, _ := s.Repartition(id); !reflect.DeepEqual(re, parts) {
			t.Errorf("%s Repartition = %v, want %v", id, re, parts)
		}
	}
}

// TestAdversaryStreamBuild: a scripted adversary tampers with StreamBuild
// like any other partition build, while the inner stash stays honest — the
// exact shape the engine's quarantine/Repartition recovery relies on.
func TestAdversaryStreamBuild(t *testing.T) {
	s := New()
	now := time.Unix(0, 0)
	if err := s.PostQuery(&protocol.QueryPost{ID: "q-adv", PostedAt: now}, now); err != nil {
		t.Fatal(err)
	}
	all := streamTuples(6)
	if _, _, err := deposit(s, "q-adv", all, now); err != nil {
		t.Fatal(err)
	}
	a := NewAdversary(s, script(faultplan.SSIDropTuple), 21, "q-adv")

	honest := multiset([][]protocol.WireTuple{all})
	got, _ := a.StreamBuild("q-adv", 3)
	if reflect.DeepEqual(multiset(got), honest) {
		t.Fatalf("scripted adversary handed out an honest stream build; strikes %v", a.Strikes())
	}
	if len(a.Strikes()) != 1 {
		t.Fatalf("strikes = %v, want exactly one", a.Strikes())
	}
	// Recovery: the re-issue comes from the honest stash.
	if re, _ := a.Repartition("q-adv"); !reflect.DeepEqual(multiset(re), honest) {
		t.Fatalf("re-issued stream build still tampered: %v", multiset(re))
	}
}

// TestStreamBuildByTag: on a tagged post StreamBuild groups the store in
// place — across chunk boundaries, untagged tuples sprinkled — into
// exactly PartitionByTag's build over the flat copy, and names each build
// tuple's store position; the re-issue and the adversary hand the same
// positions on.
func TestStreamBuildByTag(t *testing.T) {
	s, all := New(), make([]protocol.WireTuple, 2*tupleChunk+37)
	must(t, s.PostQuery(&protocol.QueryPost{ID: "q-tag", Kind: protocol.KindCNoise}, t0))
	for i := range all {
		all[i] = tuple(fmt.Sprintf("g%d", i%13), 4)
		binary.BigEndian.PutUint32(all[i].Ciphertext, uint32(i))
		if i%17 == 0 {
			all[i].Tag = nil
		}
	}
	_, _, err := deposit(s, "q-tag", all, t0)
	must(t, err)
	parts, pos := s.StreamBuild("q-tag", 64)
	if want := s.PartitionByTag("q-ref", s.CollectedTuples("q-tag"), 64); !reflect.DeepEqual(parts, want) || len(pos) != len(all) {
		t.Fatalf("store build %v with %d positions, want PartitionByTag's %v", partLens(parts), len(pos), partLens(want))
	}
	for k, w := range slices.Concat(parts...) {
		if got := s.CollectedRange("q-tag", int(pos[k]), int(pos[k])+1); !reflect.DeepEqual(got[0], w) {
			t.Fatalf("build tuple %d: position %d holds %v, not %v", k, pos[k], got[0], w)
		}
	}
	if re, rpos := s.Repartition("q-tag"); !reflect.DeepEqual(re, parts) || !reflect.DeepEqual(rpos, pos) {
		t.Error("the re-issue is not the build and its positions")
	}
	a := NewAdversary(s, script(faultplan.SSIDropTuple), 21, "q-tag")
	if got, apos := a.StreamBuild("q-tag", 64); reflect.DeepEqual(got, parts) || !reflect.DeepEqual(apos, pos) {
		t.Errorf("the adversary must tamper with the build and hand its positions on; strikes %v", a.Strikes())
	}
}

func partLens(parts [][]protocol.WireTuple) []int {
	ls := make([]int, len(parts))
	for i, p := range parts {
		ls[i] = len(p)
	}
	return ls
}
