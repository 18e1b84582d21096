package xform

// FormatAll is formatAll, for the package's external tests.
var FormatAll = formatAll
