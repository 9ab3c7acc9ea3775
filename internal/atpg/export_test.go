package atpg

// RPTDetected lets the external atpg_test package derive a finished
// run's pre-phase detections (see rptDetected).
var RPTDetected = rptDetected
