// Package sentinelerr is the sentinelerr fixture: == / != / switch over
// exported Err* sentinels must be flagged, as must substring tests on an
// error's text and bare errors.New at return sites in the cluster-scoped
// unit; errors.Is, nil checks, %w wrapping, substring tests on other
// strings, and justified escapes must stay quiet.
package sentinelerr

import (
	"errors"
	"fmt"
	"strings"
)

var ErrGone = errors.New("gone")

func compare(err error) bool {
	return err == ErrGone // want "ErrGone compared with =="
}

func compareNeq(err error) bool {
	return err != ErrGone // want "ErrGone compared with !="
}

func switchCase(err error) int {
	switch err {
	case ErrGone: // want "switch case on sentinel ErrGone"
		return 1
	}
	return 0
}

// classify is the sanctioned form: must stay quiet.
func classify(err error) bool {
	return errors.Is(err, ErrGone)
}

// textMatch classifies by what the error says, not which error it is.
func textMatch(err error) bool {
	return strings.Contains(err.Error(), ErrGone.Error()) // want "strings.Contains on an error's text"
}

// nameMatch tests a string that is not an error's text: must stay quiet.
func nameMatch(name string) bool {
	return strings.HasPrefix(name, "Err")
}

// nilCheck compares against nil, not a sentinel: must stay quiet.
func nilCheck(err error) bool {
	return err == nil
}

func adHoc() error {
	return errors.New("unclassifiable") // want "errors.New at a cluster return site"
}

// wrapped attaches context without destroying classification: quiet.
func wrapped() error {
	return fmt.Errorf("context: %w", ErrGone)
}

// sentinelDecl assigns errors.New to a package sentinel (not a return
// site): must stay quiet.
var ErrLate = errors.New("late")

func allowedCompare(err error) bool {
	//lint:allow sentinelerr(fixture: identity comparison is load-bearing here)
	return err == ErrGone
}
