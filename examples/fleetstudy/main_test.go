package main

// Example runs the program and pins its output.
func Example() {
	main()
	// Output:
	// Generated 120 vehicles, 9284 stops total
	//
	// --- B = 28 s ---
	// mean CR:     TOI NEV DET N-Rand MOM-Rand Proposed
	// California   2.196 2.346 1.210  1.582    1.488    1.210
	// Chicago      2.745 3.932 1.338  1.582    1.526    1.334
	// Atlanta      2.052 2.454 1.268  1.582    1.519    1.240
	// Proposed policy best in 111/120 vehicles (92.5%)
	//
	// --- B = 47 s ---
	// mean CR:     TOI NEV DET N-Rand MOM-Rand Proposed
	// California   3.373 2.109 1.167  1.582    1.389    1.167
	// Chicago      3.850 3.220 1.378  1.582    1.466    1.373
	// Atlanta      3.084 2.161 1.193  1.582    1.410    1.193
	// Proposed policy best in 101/120 vehicles (84.2%)
	//
	// Vehicle california-0000 (117 stops): proposed plays DET
	//     TOI       CR 2.099
	//     NEV       CR 3.497
	//   * DET       CR 1.287
	//     N-Rand    CR 1.582
	//     MOM-Rand  CR 1.582
	//     Proposed  CR 1.287
}
