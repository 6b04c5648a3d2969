package main

// Example runs the program and pins its output.
func Example() {
	main()
	// Output:
	// Powertrain states (costs in seconds of full idling):
	//   state 0: entry 0, rate 1.00/s
	//   state 1: entry 4, rate 0.45/s
	//   state 2: entry 28, rate 0.00/s
	// Segment break-evens: 7.3 s (idle -> fuel-cut), 53.3 s (fuel-cut -> off)
	//
	// policy         trace CR     worst CR
	// MS-DET            1.468        2.000
	// MS-Rand           1.582        1.582
	// MS-Proposed       1.320   (see note)
	//
	// Constrained bundle per segment:
	//   segment 0 (break-even 7.3 s): plays TOI
	//   segment 1 (break-even 53.3 s): plays DET
}
