// Package par is a fixture stub standing in for the real
// panic-isolation package; nakedgo matches it by import path only and
// exempts its internals — the primitives own their recover discipline,
// including raw go statements like the one below.
package par

func Safe(fn func() error) error { return fn() }

func ForEach(n int, fn func(i int) error) error {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			fn(i)
		}
	}()
	<-done
	return nil
}
