// exempt.go exercises the whole-file escape: with lint:allow-file in force,
// nothing in this file is reported, however many violations it holds.
package nogoroutine

import "iter"

//lint:allow-file nogoroutine(fixture: this file stands in for the kernel implementation itself)

func kernelGuts(done chan struct{}) {
	_, stop := iter.Pull(func(func(int) bool) {})
	stop()
	go func() {
		done <- struct{}{}
	}()
	<-done
	select {
	default:
	}
}
