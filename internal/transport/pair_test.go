package transport

import (
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/packet"
)

// pairs returns each fabric's pair constructor for table-driven tests.
func pairs() map[string]func() (Link, Link, error) {
	return map[string]func() (Link, Link, error){
		"chan": func() (Link, Link, error) {
			p, c := NewPair(DefaultChanBuffer)
			return p, c, nil
		},
		"tcp": NewTCPPair,
	}
}

// TestPairConstructors mints one link per fabric and carries one packet
// each way over it.
func TestPairConstructors(t *testing.T) {
	for name, mint := range pairs() {
		t.Run(name, func(t *testing.T) {
			parent, child, err := mint()
			if err != nil {
				t.Fatal(err)
			}
			defer parent.Close()
			defer child.Close()

			if err := child.Send(packet.MustNew(10, 1, 2, "%d", int64(42))); err != nil {
				t.Fatal(err)
			}
			got, err := parent.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if v, _ := got.Int(0); v != 42 {
				t.Errorf("upstream payload = %d, want 42", v)
			}
			if err := parent.Send(packet.MustNew(11, 1, 0, "%s", "hello")); err != nil {
				t.Fatal(err)
			}
			got, err = child.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if s, _ := got.Str(0); s != "hello" {
				t.Errorf("downstream payload = %q, want hello", s)
			}
		})
	}
}

// TestPairDroppedEndReadsEOF: dropping either end of a minted link ends
// the other end's reads with io.EOF, on both fabrics.
func TestPairDroppedEndReadsEOF(t *testing.T) {
	for name, mint := range pairs() {
		for end, dropParent := range map[string]bool{"parent": true, "child": false} {
			t.Run(name+"/drop-"+end, func(t *testing.T) {
				parent, child, err := mint()
				if err != nil {
					t.Fatal(err)
				}
				dropped, other := child, parent
				if dropParent {
					dropped, other = parent, child
				}
				defer other.Close()
				DropLink(dropped)
				got := make(chan error, 1)
				go func() {
					_, err := other.Recv()
					got <- err
				}()
				select {
				case err := <-got:
					if !errors.Is(err, io.EOF) {
						t.Errorf("Recv at the other end = %v, want io.EOF", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("the other end still reads after the drop")
				}
			})
		}
	}
}
