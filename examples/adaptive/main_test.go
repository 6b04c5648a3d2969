package main

// Example runs the program and pins its output.
func Example() {
	main()
	// Output:
	// Trace: 84 suburban stops, then 173 downtown stops
	//
	// stop    0: playing N-Rand (warmup)
	// stop   10: switched to DET    (est. mu_B- =   7.4 s, q_B+ = 0.00)
	// stop  148: switched to N-Rand (est. mu_B- =   6.6 s, q_B+ = 0.33)
	// stop  168: switched to TOI    (est. mu_B- =   6.5 s, q_B+ = 0.40)
	// stop  174: switched to N-Rand (est. mu_B- =   6.5 s, q_B+ = 0.40)
	// stop  175: switched to TOI    (est. mu_B- =   6.4 s, q_B+ = 0.41)
	// stop  218: switched to N-Rand (est. mu_B- =   6.1 s, q_B+ = 0.41)
	// stop  219: switched to TOI    (est. mu_B- =   6.0 s, q_B+ = 0.42)
	//
	// Adaptive realized CR: 1.496
	// Static oracle per phase: DET then TOI
	// N-Rand (no statistics) CR: 1.582
}
