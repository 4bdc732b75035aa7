// Fixture for nakedgo: any package other than internal/par is in
// scope.
package svc

import "datasynth/internal/par"

func work() {}

func naked() {
	go work() // want `naked go statement`
	go func() { // want `naked go statement`
		work()
	}()
}

func guardedDirect(n int) {
	go par.ForEach(n, func(int) error { return nil })
}

func guardedBody(logf func(string, ...any)) {
	go func() {
		if err := par.Safe(func() error { work(); return nil }); err != nil {
			logf("worker crashed: %v", err)
		}
	}()
}

func allowedPlumbing(c chan int) {
	//lint:allow nakedgo fixture: body is a single channel send and cannot panic
	go func() { c <- 1 }()
}

func allowMissingReason(c chan int) {
	//lint:allow nakedgo // want `missing its mandatory reason`
	go func() { c <- 1 }() // want `naked go statement`
}
