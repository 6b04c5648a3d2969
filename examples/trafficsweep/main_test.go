package main

// Example runs the program and pins its output.
func Example() {
	main()
	// Output:
	// Worst-case CR vs mean stop length, B = 28 s (log x)
	//    2.200 |+  +   +  +   +  +   +  +  +   +  +   +  +   +  +
	//    2.120 |
	//    2.040 |
	//    1.960 |                                                                            *  *
	//    1.880 |                                                    +                   *
	//    1.800 |                                                                     *
	//    1.720 |                                                                 *
	//    1.640 |                                                       +
	//    1.560 |o  o   o  o   o  o   x  x  x   x  o   o  o   o  o   o  o  o   o  o   o  o   o  o
	//    1.480 |              x  x                x   x                   *
	//    1.400 |          x                              x             x  x
	//    1.320 |       x                                     x  x   x
	//    1.240 |x  x                                                          x
	//    1.160 |                                                                 x
	//    1.080 |                                                                     x
	//    1.000 |                                                                        x   x  x
	//          +--------------------------------------------------------------------------------
	//           2                                                                            600
	//     * DET
	//     + TOI
	//     o N-Rand
	//     x Proposed
	//
	// traffic regimes (B = 28 s): DET -> TOI (from mean 136 s)
	//
	// Worst-case CR vs mean stop length, B = 47 s (log x)
	//    2.200 |+  +   +  +   +  +   +  +  +   +  +   +  +   +  +   +  +
	//    2.120 |
	//    2.040 |
	//    1.960 |
	//    1.880 |                                                          +                    *
	//    1.800 |                                                                            *
	//    1.720 |                                                                        *
	//    1.640 |                                                              +
	//    1.560 |o  o   o  o   o  o   o  o  x   x  x   x  o   o  o   o  o  o   o  o   o  o   o  o
	//    1.480 |                     x  x                x   x                   *
	//    1.400 |                 x                              x             x  x
	//    1.320 |              x                                     x  x  x
	//    1.240 |       x  x                                                          x
	//    1.160 |   x                                                                    x
	//    1.080 |x                                                                           x
	//    1.000 |                                                                               x
	//          +--------------------------------------------------------------------------------
	//           2                                                                            600
	//     * DET
	//     + TOI
	//     o N-Rand
	//     x Proposed
	//
	// traffic regimes (B = 47 s): DET -> TOI (from mean 223 s)
}
