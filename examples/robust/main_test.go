package main

// Example runs the program and pins its output.
func Example() {
	main()
	// Output:
	// day    stops | plain   (worst-case CR given estimate) | robust  (CR guaranteed over 95% rectangle)
	// 1         16 | DET     1.341                        | N-Rand  1.582
	// 2         27 | DET     1.470                        | N-Rand  1.582
	// 3         38 | DET     1.417                        | N-Rand  1.582
	// 4         62 | DET     1.294                        | DET     1.507
	// 5         75 | DET     1.372                        | DET     1.558
	// 10       151 | DET     1.377                        | DET     1.504
	// 14       296 | DET     1.375                        | DET     1.466
	//
	// After two weeks the 95% rectangle has shrunk to mu in [6.4, 8.0], q in [0.119, 0.201],
	// and the robust guarantee approaches the plain one: estimation risk has been priced out.
}
