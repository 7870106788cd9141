package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/measure"
)

// scanFrames splits a worker's output stream into parsed generic frames.
func scanFrames(t *testing.T, out []byte) []map[string]any {
	t.Helper()
	var frames []map[string]any
	for _, line := range bytes.Split(bytes.TrimRight(out, "\n"), []byte("\n")) {
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("worker emitted a non-frame line %q: %v", line, err)
		}
		frames = append(frames, m)
	}
	return frames
}

// TestRunWorkerProtocol drives the worker loop directly through one task:
// hello first (correct version and catalog hash), then a result frame whose
// decoded output assembles into exactly what a direct Run produces, then a
// stats frame at EOF.
func TestRunWorkerProtocol(t *testing.T) {
	e, ok := Lookup("survivors")
	if !ok {
		t.Fatal("survivors not registered")
	}
	cfg := RunConfig{Preset: PresetQuick}
	tf, err := json.Marshal(TaskFrame{Type: FrameTask, ID: 7, Experiment: "survivors", Config: cfg, Index: 0})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := RunWorker(context.Background(), bytes.NewReader(append(tf, '\n')), &out); err != nil {
		t.Fatal(err)
	}
	frames := scanFrames(t, out.Bytes())
	if len(frames) != 3 {
		t.Fatalf("worker emitted %d frames, want hello+result+stats:\n%s", len(frames), out.Bytes())
	}
	if frames[0]["type"] != FrameHello || frames[0]["proto"] != float64(ProtoVersion) ||
		frames[0]["catalog"] != CatalogHash() || frames[0]["build"] != BuildID() {
		t.Fatalf("bad hello frame: %v", frames[0])
	}
	var rf ResultFrame
	if err := json.Unmarshal(jsonLine(t, out.Bytes(), 1), &rf); err != nil || rf.Type != FrameResult {
		t.Fatalf("bad result frame: %v %v", frames[1], err)
	}
	if rf.ID != 7 {
		t.Fatalf("result frame id %d, want the task frame's 7", rf.ID)
	}
	plan, err := e.plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := plan.Decode(rf.Output)
	if err != nil {
		t.Fatal(err)
	}
	assembled, err := plan.Assemble([]any{decoded})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := e.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want, got := canonicalJSON(t, []*Result{direct}), canonicalJSON(t, []*Result{assembled}); !bytes.Equal(want, got) {
		t.Fatalf("wire round-trip diverged from direct Run:\n%s\nvs\n%s", want, got)
	}
	if frames[2]["type"] != FrameStats || frames[2]["tasks"] != float64(1) {
		t.Fatalf("bad stats frame: %v", frames[2])
	}
}

// jsonLine returns the i-th NDJSON line of a stream.
func jsonLine(t *testing.T, out []byte, i int) []byte {
	t.Helper()
	lines := bytes.Split(bytes.TrimRight(out, "\n"), []byte("\n"))
	if i >= len(lines) {
		t.Fatalf("stream has %d lines, wanted line %d", len(lines), i)
	}
	return lines[i]
}

// TestRunWorkerMalformedFrame: a line that is not JSON, or a frame missing
// its type, terminates the worker with an error (nonzero exit for the
// subcommand) after the hello frame.
func TestRunWorkerMalformedFrame(t *testing.T) {
	for _, input := range []string{"{this is not json\n", `{"id":3}` + "\n"} {
		var out bytes.Buffer
		err := RunWorker(context.Background(), strings.NewReader(input), &out)
		if err == nil || !strings.Contains(err.Error(), "malformed frame") {
			t.Fatalf("input %q: err = %v, want a malformed-frame error", input, err)
		}
		frames := scanFrames(t, out.Bytes())
		if len(frames) != 1 || frames[0]["type"] != FrameHello {
			t.Fatalf("input %q: worker emitted %v, want only the hello frame", input, frames)
		}
	}
}

// TestRunWorkerRejectsNonTaskFrames: only task frames flow to workers; a
// stray result/hello frame on stdin is a protocol error.
func TestRunWorkerRejectsNonTaskFrames(t *testing.T) {
	var out bytes.Buffer
	err := RunWorker(context.Background(), strings.NewReader(`{"type":"result","id":1}`+"\n"), &out)
	if err == nil || !strings.Contains(err.Error(), `unexpected "result" frame`) {
		t.Fatalf("err = %v, want an unexpected-frame error", err)
	}
}

// TestRunWorkerUnknownExperiment: an unaddressable task (unknown name, task
// index out of range) is an error frame — failing that task batch-side —
// not a worker death; the worker stays up and still reports stats.
func TestRunWorkerUnknownExperiment(t *testing.T) {
	var in bytes.Buffer
	enc := json.NewEncoder(&in)
	for _, tf := range []TaskFrame{
		{Type: FrameTask, ID: 1, Experiment: "no-such-experiment", Config: RunConfig{}, Index: 0},
		{Type: FrameTask, ID: 2, Experiment: "survivors", Config: RunConfig{Preset: PresetQuick}, Index: 99},
	} {
		if err := enc.Encode(tf); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := RunWorker(context.Background(), &in, &out); err != nil {
		t.Fatal(err)
	}
	frames := scanFrames(t, out.Bytes())
	if len(frames) != 4 { // hello, two errors, stats
		t.Fatalf("worker emitted %d frames: %v", len(frames), frames)
	}
	for i, want := range []string{"not registered", "out of range"} {
		f := frames[i+1]
		if f["type"] != FrameError || !strings.Contains(f["error"].(string), want) {
			t.Fatalf("frame %d = %v, want an error frame mentioning %q", i+1, f, want)
		}
	}
	if frames[3]["type"] != FrameStats {
		t.Fatalf("missing stats frame: %v", frames[3])
	}
}

// TestCatalogHashIgnoresThrowawayRegistrations: the handshake hash is
// stable across runs and unmoved by "test-"/"example-" registrations, so a
// test or example registering a scratch experiment in the orchestrator
// process cannot desynchronize it from its workers.
func TestCatalogHashIgnoresThrowawayRegistrations(t *testing.T) {
	before := CatalogHash()
	if before != CatalogHash() {
		t.Fatal("CatalogHash is not deterministic")
	}
	if !strings.HasPrefix(before, "sha256:") {
		t.Fatalf("hash %q lacks its algorithm prefix", before)
	}
	MustRegister(&Experiment{
		Name: "test-proto-hash-throwaway",
		Run:  func(ctx context.Context, cfg RunConfig) (*Result, error) { return &Result{}, nil },
	})
	if after := CatalogHash(); after != before {
		t.Fatalf("a test- registration moved the catalog hash %q -> %q", before, after)
	}
}

// TestSweepPointWireCodec: the sweep-point wire encoding carries rows
// pre-formatted by the same renderer Table.AddRow uses, so assembling
// decoded points produces byte-identical table rows, and X/Y round-trip
// exactly for the orchestrator-side fit.
func TestSweepPointWireCodec(t *testing.T) {
	p := sweepPoint{
		pt:  measure.Point{X: 4096000, Y: 0.123456789},
		row: []any{4096000, 0.123456789, "cell", 7},
	}
	raw, err := encodeSweepPoint(p)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := decodeSweepPoint(raw)
	if err != nil {
		t.Fatal(err)
	}
	q := decoded.(sweepPoint)
	if q.pt != p.pt {
		t.Fatalf("point %v round-tripped to %v", p.pt, q.pt)
	}
	var local, wire measure.Table
	local.AddRow(p.row...)
	wire.AddRow(q.row...)
	if !reflect.DeepEqual(local.Rows, wire.Rows) {
		t.Fatalf("decoded row renders %v, local renders %v", wire.Rows, local.Rows)
	}
	if _, err := encodeSweepPoint("not a point"); err == nil {
		t.Fatal("encoding a non-point succeeded")
	}
}

// TestFrameTypesCoverProtocol: the exported frame list — the docs gate's
// source of truth — names exactly the discriminators the implementation
// emits.
func TestFrameTypesCoverProtocol(t *testing.T) {
	want := []string{FrameHello, FrameTask, FrameResult, FrameError, FrameStats}
	if got := FrameTypes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("FrameTypes() = %v, want %v", got, want)
	}
}

// TestMalformedPointRowIsAssembleError: decodeSweepPoint accepts any row, so
// a worker can return one that does not match the experiment's header — an
// empty row for an ensemble, a short one for a fitted sweep. Assembly must
// reject it with an error naming the point, not index past the row.
func TestMalformedPointRowIsAssembleError(t *testing.T) {
	for _, tc := range []struct {
		name  string
		short int    // task whose output is malformed; -1: every task
		raw   string // its wire output
		want  string
	}{
		{"ensemble-gw-linial", -1, `{"x":1,"y":1,"row":[]}`, "sample=1: row has 0 cells, header has 5"},
		{"twocoloring-gap", 1, `{"x":400,"y":299.5,"row":["400","299.5","0.7488"]}`, "n=400: row has 3 cells, header has 4"},
	} {
		e, ok := Lookup(tc.name)
		if !ok {
			t.Fatalf("%s not registered", tc.name)
		}
		plan, err := e.Plan(RunConfig{Preset: PresetQuick})
		if err != nil {
			t.Fatal(err)
		}
		outs := make([]any, len(plan.Tasks))
		for i := range outs {
			raw := `{"x":1,"y":1,"row":["1","1","1",""]}`
			if tc.short < 0 || i == tc.short {
				raw = tc.raw
			}
			if outs[i], err = plan.Decode(json.RawMessage(raw)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := plan.Assemble(outs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Assemble = %v, %v; want an error containing %q", tc.name, res, err, tc.want)
		}
	}
}

// FuzzFrameDecoding: the frame scanner yields exactly the newline-terminated
// lines of its input, each without one trailing '\r', and never the torn
// line after the last newline; frameType and decodeSweepPoint take any line
// without panicking, and a sweep point decodeSweepPoint accepts, bare or as
// a result frame's output, re-encodes to a fixed point.
func FuzzFrameDecoding(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var want [][]byte
		lines := bytes.Split(data, []byte("\n"))
		for _, line := range lines[:len(lines)-1] {
			want = append(want, bytes.TrimSuffix(line, []byte("\r")))
		}
		var got [][]byte
		sc := newFrameScanner(bytes.NewReader(data))
		for sc.Scan() {
			got = append(got, bytes.Clone(sc.Bytes()))
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("scanner: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("scanner yielded %d lines, want %d: %q", len(got), len(want), got)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("line %d is %q, want %q", i, got[i], want[i])
			}
		}
		for _, line := range got {
			checkSweepPointFixedPoint(t, line)
			if kind, err := frameType(line); err == nil && kind == FrameResult {
				var rf ResultFrame
				if json.Unmarshal(line, &rf) == nil {
					checkSweepPointFixedPoint(t, rf.Output)
				}
			}
		}
	})
}

// checkSweepPointFixedPoint decodes raw as a sweep point and, if that
// succeeds, requires encoding, decoding and encoding again to repeat the
// first encoding byte for byte.
func checkSweepPointFixedPoint(t *testing.T, raw []byte) {
	t.Helper()
	p, err := decodeSweepPoint(raw)
	if err != nil {
		return
	}
	enc, err := encodeSweepPoint(p)
	if err != nil {
		t.Fatalf("%q decoded, but re-encoding failed: %v", raw, err)
	}
	q, err := decodeSweepPoint(enc)
	if err != nil {
		t.Fatalf("%q re-encoded as %s, which does not decode: %v", raw, enc, err)
	}
	again, err := encodeSweepPoint(q)
	if err != nil || !bytes.Equal(enc, again) {
		t.Fatalf("%q: sweep point is no fixed point: %s, then %s (%v)", raw, enc, again, err)
	}
}
