package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/fabric"
)

func TestListPagination(t *testing.T) {
	c, _ := newClient(t)
	for i := 0; i < 7; i++ {
		if _, err := c.Post(fmt.Sprintf("sensor/%02d", i), "cs", PostOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Post("other/x", "cs", PostOptions{}); err != nil {
		t.Fatal(err)
	}

	page, err := c.List("sensor/", "", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Records) != 3 || page.Next == "" {
		t.Fatalf("page = %d records, next %q", len(page.Records), page.Next)
	}
	all, err := c.ListAll("sensor/")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 7 {
		t.Errorf("ListAll = %d records, want 7", len(all))
	}
	for i, rec := range all {
		if want := fmt.Sprintf("sensor/%02d", i); rec.Key != want {
			t.Errorf("record %d = %q, want %q (key order)", i, rec.Key, want)
		}
	}
}

func TestGetByCreatorAcrossClients(t *testing.T) {
	c, _ := newClient(t)
	other, err := New(mustGateway(t, c, "other-client"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Post("mine", "c1", PostOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := other.Post("theirs", "c2", PostOptions{}); err != nil {
		t.Fatal(err)
	}

	mine, err := c.GetByCreator(c.Subject())
	if err != nil {
		t.Fatal(err)
	}
	if len(mine) != 1 || mine[0].Key != "mine" {
		t.Errorf("GetByCreator(self) = %+v", mine)
	}
	theirs, err := c.GetByCreator(other.Subject())
	if err != nil {
		t.Fatal(err)
	}
	if len(theirs) != 1 || theirs[0].Key != "theirs" {
		t.Errorf("GetByCreator(other) = %+v", theirs)
	}
}

// mustGateway enrolls a fresh client identity on the same network.
func mustGateway(t *testing.T, c *Client, name string) *fabric.Gateway {
	t.Helper()
	gw, err := c.gw.Network().NewGateway(name)
	if err != nil {
		t.Fatal(err)
	}
	return gw
}

func TestQueryMetaEndToEnd(t *testing.T) {
	c, _ := newClient(t)
	if _, err := c.Post("a", "c1", PostOptions{Meta: map[string]string{"stage": "raw"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Post("b", "c2", PostOptions{Meta: map[string]string{"stage": "final"}}); err != nil {
		t.Fatal(err)
	}
	recs, err := c.QueryMeta("stage", "raw")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Key != "a" {
		t.Errorf("QueryMeta = %+v", recs)
	}
}

func TestGetChildren(t *testing.T) {
	c, _ := newClient(t)
	if _, err := c.Post("p", "c0", PostOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Post("child", "c1", PostOptions{Parents: []string{"p"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Post("grandchild", "c2", PostOptions{Parents: []string{"child"}}); err != nil {
		t.Fatal(err)
	}
	kids, err := c.GetChildren("p")
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 1 || kids[0].Key != "child" {
		t.Errorf("GetChildren = %+v", kids)
	}
}

func TestChaincodeVersion(t *testing.T) {
	c, _ := newClient(t)
	v, err := c.ChaincodeVersion()
	if err != nil {
		t.Fatal(err)
	}
	if v == "" {
		t.Error("empty version")
	}
}

func TestOwnershipAcrossClients(t *testing.T) {
	c, _ := newClient(t)
	other, err := New(mustGateway(t, c, "intruder"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Post("protected", "c1", PostOptions{}); err != nil {
		t.Fatal(err)
	}
	settle(t, c)
	// A different identity may not overwrite or delete the record.
	if _, err := other.Post("protected", "c2", PostOptions{}); err == nil {
		t.Error("non-owner update succeeded")
	}
	if _, err := other.Delete("protected"); err == nil {
		t.Error("non-owner delete succeeded")
	}
	// The owner still can.
	if _, err := c.Post("protected", "c3", PostOptions{}); err != nil {
		t.Errorf("owner update failed: %v", err)
	}
}

func TestWatchStreamsCommits(t *testing.T) {
	c, _ := newClient(t)
	watch := c.Watch(16)
	keys := []string{"w1", "w2", "w3"}
	for _, k := range keys {
		if _, err := c.Post(k, "cs", PostOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]bool{}
	timeout := time.After(5 * time.Second)
	for len(got) < len(keys) {
		select {
		case ev, ok := <-watch:
			if !ok {
				t.Fatal("watch closed early")
			}
			if ev.TxID == "" || ev.Key == "" {
				t.Errorf("incomplete event %+v", ev)
			}
			got[ev.Key] = true
		case <-timeout:
			t.Fatalf("saw %d/%d events", len(got), len(keys))
		}
	}
	for _, k := range keys {
		if !got[k] {
			t.Errorf("missing event for %q", k)
		}
	}
}
