package main

import (
	"io"
	"os"
	"testing"

	"datasynth/internal/sgen"
)

// wantStdout is the example's whole output for its fixed seeds.
const wantStdout = `generated 50000 messages in 8941 cascades (largest 195, deepest 21 levels)
date monotonicity violations: 0 / 41059 replies
replies that drifted off-topic: 1427 (2.9%)
replyOf edges: 41059 (one per non-root message)
example: message 2 replies to 1 (2023-07-05 -> 2023-07-10)
`

// TestStdoutPinned runs the example and pins what it prints.
func TestStdoutPinned(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	main()
	w.Close()
	if got := string(<-done); got != wantStdout {
		t.Errorf("stdout:\n%s\nwant:\n%s", got, wantStdout)
	}
}

// TestReplyDatesIncrease: roots land in [from, to] and every reply
// 1..maxLagDays after its parent.
func TestReplyDatesIncrease(t *testing.T) {
	const n = 3000
	et, err := sgen.NewCascade(11).Run(n)
	if err != nil {
		t.Fatal(err)
	}
	parent := parents(et, n)
	dates := replyDates(parent, 15000, 16000, 7, 21)
	for v, p := range parent {
		if p == -1 {
			if dates[v] < 15000 || dates[v] > 16000 {
				t.Fatalf("root %d date %d outside range", v, dates[v])
			}
		} else if lag := dates[v] - dates[p]; lag < 1 || lag > 7 {
			t.Fatalf("reply %d lands %d days after its parent", v, lag)
		}
	}
}
