package store_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/workload"
)

// goldenContainerDigests pins the codec's bytes: the SHA-256 of every
// container goldenContainers encodes, per kind.  Stored corpus entries and
// binary wire bodies are these bytes, so a mismatch means an encoder changed
// its output and stale entries would decode differently — a change that
// needs a CodecVersion bump, never a silent re-pin.
var goldenContainerDigests = map[string]string{
	"run":        "8ac6e08963a8985cb95b16dd524d1d8284ed250639fcff532490a36a670d07bd",
	"system":     "0bb718996a10fa2fac3408d51ae3bbdd38f49002ae718657324baa2b4adf539c",
	"seed":       "8b992f92625e26922e637864f34cb333901521f7ac4da1f7763e1393f82d0941",
	"sweep":      "b5d12b1c827683f5238d5e378084045e957a8503294cfac8259add443492a907",
	"outcome":    "41ceec665fe7123c0db9dcb2417e3baa121a73b76ec8f70b982422d07b5c9257",
	"error":      "27cebc08a851db5918a7b4201f3f65fa53070a6f67bf73a19215c3ce81cd1fe0",
	"extraction": "74a48947a5824aa50792e5b9ca43760f91f5ddd0b1f26cdec6798ab443d512bc",
}

// goldenContainers encodes a fixed set of values into every container kind:
// two seeds of every catalogued scenario as runs, a system of them, scored
// and unscored seed records (with and without violations), a sweep record
// and its per-seed outcome frames, a stream error, and extraction records of
// both constructions.
func goldenContainers(t *testing.T) map[string][][]byte {
	t.Helper()
	out := make(map[string][][]byte)
	runs := sampleRuns(t)
	for _, run := range runs {
		out["run"] = append(out["run"], store.EncodeRun(run))
	}
	out["system"] = [][]byte{store.EncodeSystem(runs[:6])}

	for _, name := range []string{"prop2.4-reliable-udc", "prop3.1-strong-udc", "adv-targeted-final-fd"} {
		sc := registry.MustScenario(name)
		seeds := workload.Seeds(1, 2)
		ran, err := workload.Runner{Workers: 1}.RunAll([]workload.Task{
			{Spec: sc.Spec, Seeds: seeds, Eval: sc.Eval},
			{Spec: sc.Spec, Seeds: seeds[:1]},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, sr := range ran[0] {
			out["seed"] = append(out["seed"], store.EncodeSeedRecord(store.NewSeedRecord(sr, true)))
		}
		out["seed"] = append(out["seed"], store.EncodeSeedRecord(store.NewSeedRecord(ran[1][0], false)))

		res, err := workload.Sweep(sc.Spec, workload.Seeds(3, 4), sc.Eval)
		if err != nil {
			t.Fatal(err)
		}
		out["sweep"] = append(out["sweep"], store.EncodeSweepRecord(store.NewSweepRecord(sc.Name, sc.Check, "", 3, res)))
		for _, o := range res.Outcomes {
			out["outcome"] = append(out["outcome"], store.EncodeOutcome(o))
		}
	}
	out["error"] = [][]byte{store.EncodeStreamError("server: compute queue full"), store.EncodeStreamError("")}

	for _, name := range []string{"kx-perfect", "kx-tuseful"} {
		sc := registry.MustExtraction(name)
		ext := sc.Extraction
		ext.Runs = 6
		res, err := workload.Runner{Workers: 1}.Extract(ext)
		if err != nil {
			t.Fatal(err)
		}
		out["extraction"] = append(out["extraction"], store.EncodeExtractionRecord(store.NewExtractionRecord("", sc.Stress, res)))
	}
	return out
}

func TestCodecGoldenDigests(t *testing.T) {
	for kind, blobs := range goldenContainers(t) {
		h := sha256.New()
		for _, b := range blobs {
			h.Write(binary.AppendUvarint(nil, uint64(len(b))))
			h.Write(b)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenContainerDigests[kind] {
			t.Errorf("%s containers (%d): digest %s, want %s", kind, len(blobs), got, goldenContainerDigests[kind])
		}
	}
}
