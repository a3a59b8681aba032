package core

// ConformanceSchedulers hands the conformance harness's scheduler set to the
// external tests of this directory (package core_test), which may import the
// simulator where the in-package tests may not.
var ConformanceSchedulers = conformanceSchedulers
