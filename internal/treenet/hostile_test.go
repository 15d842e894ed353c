package treenet

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"testing"

	"repro/internal/combining"
)

// Hostile tree frames: bytes a peer (or anything that can reach the tree
// port) may send. Each once crashed the receiving process.
const (
	// fullFrame syncs a two-principal delta stream from node 1.
	fullFrame = `{"from":1,"kind":"report","delta":{"full":true,"n":2,"seq":1,"sum":[1,2],"max":[1,2],"min":[1,2],"sumsq":[1,2]}}`
	// raggedDelta extends that stream with a Sum entry but no Max, Min or
	// SumSq entries parallel to its Idx.
	raggedDelta = `{"from":1,"kind":"report","delta":{"n":2,"seq":2,"idx":[0],"sum":[1]}}`
	// negativeWidth asks the receiver to size a decoder of -1 principals.
	negativeWidth = `{"delta":{"full":true,"n":-1}}`
)

// sendRaw writes frames to a transport's listener over one raw connection,
// then a well-formed report from node 7, and waits until that report is
// delivered: the receiver survived every frame before it.
func sendRaw(t *testing.T, frames ...string) {
	t.Helper()
	var c collector
	recv, err := Listen(0, "127.0.0.1:0", c.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	conn, err := net.Dial("tcp", recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, f := range frames {
		if _, err := io.WriteString(conn, f+"\n"); err != nil {
			t.Fatal(err)
		}
	}
	ok := envelope{From: 7, Kind: "report", Epoch: 1, Agg: combining.FromLocal([]float64{4, 5})}
	if err := json.NewEncoder(conn).Encode(ok); err != nil {
		t.Fatal(err)
	}
	c.wait(t, 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if last := c.from[len(c.from)-1]; last != 7 {
		t.Fatalf("last delivered frame from node %d, want the well-formed report from 7", last)
	}
}

// TestHostileRaggedDeltaDropped pins that a delta frame whose statistic
// vectors are not parallel to its index list is dropped, not indexed out of
// range.
func TestHostileRaggedDeltaDropped(t *testing.T) {
	sendRaw(t, fullFrame, raggedDelta)
}

// TestHostileFrameWidthBounded pins that a frame's declared width is
// bounded before any decoder is allocated from it.
func TestHostileFrameWidthBounded(t *testing.T) {
	sendRaw(t, negativeWidth, `{"delta":{"full":true,"n":1000000000000}}`)
}

// TestSetWidthDropsForeignWidth pins that once the receiver declares its
// tree widths, an aggregate of any other width is dropped, plain or delta.
func TestSetWidthDropsForeignWidth(t *testing.T) {
	tr := &Transport{}
	tr.SetWidth(func(tree int) int { return 3 })
	for _, env := range []envelope{
		{Kind: "report", Agg: combining.FromLocal([]float64{1, 2})},
		{Kind: "broadcast", Delta: &combining.DeltaFrame{Full: true, N: 2, Seq: 1,
			Sum: []float64{1, 2}, Max: []float64{1, 2}, Min: []float64{1, 2}, SumSq: []float64{1, 4}}},
		{Kind: "nonsense", Agg: combining.FromLocal([]float64{1, 2, 3})},
	} {
		if msg, ok := tr.message(&env); ok {
			t.Fatalf("frame %+v delivered as %+v", env, msg)
		}
	}
	env := envelope{Kind: "report", Agg: combining.FromLocal([]float64{1, 2, 3})}
	if _, ok := tr.message(&env); !ok {
		t.Fatal("well-formed three-principal report dropped")
	}
}

// FuzzFrames feeds arbitrary bytes through the inbound tree path — the
// envelope decoder, the width bound, the delta decoders — and delivers
// whatever survives to a root and a leaf forest of two principals, then
// ticks both so the combine and broadcast paths run over the result.
// Nothing may panic. The committed corpus under testdata/fuzz holds the
// two frame sequences that once did.
func FuzzFrames(f *testing.F) {
	f.Add([]byte(`{"from":1,"kind":"broadcast","epoch":3,"agg":{"sum":[1,2],"max":[1,2],"min":[1,2],"sumsq":[1,4],"count":1}}`))
	f.Add([]byte(`{"from":1,"kind":"report","agg":{"sum":[1,2],"max":[1]}}` + "\n" + `{"from":0,"kind":"rejoin","epoch":9}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		silent := func(int) combining.SendFunc { return func(combining.NodeID, interface{}) {} }
		root, err := combining.NewForest(combining.ForestConfig{
			ID: 0, Parent: -1, Children: []combining.NodeID{1}, NumPrincipals: 2, Send: silent,
		})
		if err != nil {
			t.Fatal(err)
		}
		leaf, err := combining.NewForest(combining.ForestConfig{
			ID: 1, Parent: 0, NumPrincipals: 2, Send: silent,
		})
		if err != nil {
			t.Fatal(err)
		}
		bounded, open := &Transport{}, &Transport{}
		bounded.SetWidth(root.Width)
		dec := json.NewDecoder(bytes.NewReader(data))
		for {
			var env envelope
			if dec.Decode(&env) != nil {
				break
			}
			open.message(&env)
			if msg, ok := bounded.message(&env); ok {
				root.OnMessage(env.Tree, combining.NodeID(env.From), msg)
				leaf.OnMessage(env.Tree, combining.NodeID(env.From), msg)
			}
		}
		root.SetLocal([]float64{1, 2})
		root.Tick()
		leaf.SetLocal([]float64{3, 4})
		leaf.Tick()
	})
}
