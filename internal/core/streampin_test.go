package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"
)

// streamPin holds one snapshot stream: its length, on every
// architecture; the state it resumes to (stateDigest), on amd64, where the
// trained float64s were taken; and on three streams its SHA-256, also
// amd64.
type streamPin struct {
	length int
	state  string
	sha256 string
}

// streamPins holds every snapshot stream the pin tests build, keyed by the
// test's name; a stream with no entry fails, so renaming a test cannot
// drop its pin. A layout-only format bump re-takes the lengths and the
// three SHA-256s and leaves every state digest as it is. The three
// streams that keep a hash write every section between them: dense rows
// and the lock-step body (sync); round images, recipe chains, in-flight
// and buffered jobs and the churn section (the priced lazy fleet, whose
// Markov-only churn leaves the event heap and rejoin groups empty); the
// adversary section and materialised upload patches (topk-ef-median-byz).
// Those last two also write round images under a float32 downlink, each
// the float32 image the run holds for its version, widened.
var streamPins = map[string]streamPin{
	"TestResumeEquivalenceSync":                                       {4453641, "5e507f9f4cf1c474", "c8150674fd19a2b573a474e09125c208a83b82d4102c328f3ea6646ed7af16ca"},
	"TestResumeEquivalenceAsyncFedBuff":                               {6362308, "c317e542ebbcda71", ""},
	"TestResumeEquivalenceAsyncChurn":                                 {6362514, "7e790ff03582f2ff", ""},
	"TestResumeEquivalenceAsyncDevices":                               {6362277, "60e724da32c90a76", ""},
	"TestResumeEquivalenceNoiseFault":                                 {6362315, "b24d9db19f944647", ""},
	"TestResumeEquivalenceAsyncPricedTransport":                       {5090178, "89422b3d7978a733", ""},
	"TestResumeEquivalenceMOON":                                       {6362305, "6646a4a04d353a2d", ""},
	"TestResumeEquivalenceAdversarial":                                {6362546, "a6d2bb18b26c6266", ""},
	"TestHundredKResumeEquivalence":                                   {46897513, "aaf2281a9164eb39", ""},
	"TestLockStepStreamsPinned/straggler":                             {1114705, "8dbc1bffde1643d4", ""},
	"TestLockStepStreamsPinned/exp":                                   {1432888, "490007603ec181d4", ""},
	"TestLockStepStreamsPinned/devices":                               {1114719, "44ab9150ed15c7c6", ""},
	"TestUploadStreamsPinned/topk-ef-median-byz":                      {1116123, "8a323b520cc27c03", "8d2b35d5814e712afe289dcd5402b8d5273a60aae63b0b8714130d96bc9749af"},
	"TestUploadStreamsPinned/randk-barrier-straggler":                 {1115168, "a207aff9567565bb", ""},
	"TestUploadStreamsPinned/q8-ef-async":                             {1116030, "88daabc8af79df70", ""},
	"TestUploadStreamsPinned/q8-ef-noise":                             {1434322, "4e3cf0673fc55d40", ""},
	"TestLazyRowStreamsPinned/fedtrip:0.4/sync":                       {808264, "8f8094b215dda742", ""},
	"TestLazyRowStreamsPinned/fedtrip:0.4/sync_f32":                   {808263, "f65126769df2794a", ""},
	"TestLazyRowStreamsPinned/fedtrip:0.4/sync_topk-ef":               {808272, "04816625fdffc302", ""},
	"TestLazyRowStreamsPinned/fedtrip:0.4/async_churn":                {3198584, "8e4a10eaf0018f29", ""},
	"TestLazyRowStreamsPinned/fedtrip:0.4/async_churn_f32_devices":    {3198688, "75655aec18f5b5a8", ""},
	"TestLazyRowStreamsPinned/fedtrip:0.4/async_churn_topk-ef_priced": {3198663, "b242dd45454194f1", "3b8625f6c7a9c1ce3d99830ca03c3323c7d8bd30200c79f935b14aa5499ce676"},
	"TestLazyRowStreamsPinned/moon/sync":                              {808261, "867db3fe3f1bc065", ""},
	"TestLazyRowStreamsPinned/moon/sync_f32":                          {808260, "975ca1e0a89f3e84", ""},
	"TestLazyRowStreamsPinned/moon/sync_topk-ef":                      {808269, "f186b74ffef967dc", ""},
	"TestLazyRowStreamsPinned/moon/async_churn":                       {3198581, "a6587559a4c4408c", ""},
	"TestLazyRowStreamsPinned/moon/async_churn_f32_devices":           {3198685, "e759c84140a874bd", ""},
	"TestLazyRowStreamsPinned/moon/async_churn_topk-ef_priced":        {3198660, "862c3f3f5b9764ef", ""},
}

// requireStreamPinned holds the calling test's snapshot stream, taken
// from a run of spec, to its streamPins entry. In order: the length; that
// Resume then Snapshot writes the stream again byte for byte; the state
// it resumes to; the SHA-256 where one is kept. The re-snapshot runs
// first, on a run of its own: the state walk rebuilds the rows a recipe
// stands for, which drops chains.
func requireStreamPinned(t *testing.T, stream []byte, spec RunSpec) {
	t.Helper()
	pin, ok := streamPins[t.Name()]
	if !ok {
		state, err := stateDigest(stream, spec)
		t.Errorf("no stream pin for %q: %d bytes, state %s (%v)", t.Name(), len(stream), state, err)
		return
	}
	if len(stream) != pin.length {
		t.Errorf("snapshot stream is %d bytes, pinned %d: the byte layout moved, so bump the format version", len(stream), pin.length)
	}
	rs, err := Resume(bytes.NewReader(stream), ResumeSpec{Spec: spec})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	var again bytes.Buffer
	err = rs.Snapshot(&again)
	rs.Close()
	if err != nil {
		t.Fatalf("re-snapshot: %v", err)
	}
	if !bytes.Equal(again.Bytes(), stream) {
		t.Errorf("resume then snapshot writes %d bytes unlike the %d resumed: the writer and the reader disagree", again.Len(), len(stream))
	}
	if runtime.GOARCH != "amd64" {
		return
	}
	state, err := stateDigest(stream, spec)
	if err != nil {
		t.Fatal(err)
	}
	if state != pin.state {
		t.Errorf("the stream resumes to state %s, pinned %s: a value moved", state, pin.state)
	}
	if pin.sha256 == "" {
		return
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(stream)); got != pin.sha256 {
		t.Errorf("snapshot stream has sha256 %s, pinned %s: with the state pinned, the layout moved", got, pin.sha256)
	}
}
