package analysis

// ReplayByMap is the map-keyed oracle for the tests of package analysis_test.
var ReplayByMap = replayByMap
