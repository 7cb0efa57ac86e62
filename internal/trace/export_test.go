package trace

// NewRefFilter exposes the reference mount filter to the external
// differential test, which records its streams from the simulated suites
// (and so imports the kernel, which imports this package).
var NewRefFilter = newRefFilter
