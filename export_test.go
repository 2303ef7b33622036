package iotsan

// SubSystem exposes Analyze's per-related-set restriction to the
// external tests.
var SubSystem = subSystem
