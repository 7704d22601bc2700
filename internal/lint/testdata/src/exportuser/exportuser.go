// Package exportuser uses part of exportlib. It is not under internal/,
// so its own unused export (Run) is not a finding.
package exportuser

import "internal/exportlib"

// Spinner is the interface exportlib.Widget's Spin is called through.
type Spinner interface{ Spin() int }

// Run reaches exportlib's used exports.
func Run() int {
	var s Spinner = &exportlib.Widget{}
	return exportlib.Used() + s.Spin()
}
