package main

// Example runs the program and pins its output.
func Example() {
	main()
	// Output:
	// Break-even interval B = 28.9 s (idling 0.0258 cents/s, restart 0.746 cents)
	//
	// Estimated statistics: mu_B- = 7.1 s, q_B+ = 0.33
	// Selected strategy: DET (worst-case CR 1.575)
	//
	// policy     cost (cents)     idle (s) restarts        CR
	// Proposed         10.224          252        5     1.575
	// TOI              11.195            0       15     1.724
	// NEV              27.270         1057        0     4.200
	// DET              10.224          252        5     1.575
	// N-Rand           11.384          210        8     1.754
	//
	// CR = policy cost / clairvoyant cost; lower is better, 1.0 is optimal.
}
