package machine

// RaceEnabled is raceEnabled for package machine_test.
const RaceEnabled = raceEnabled
