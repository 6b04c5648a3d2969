package main

// Example runs the program and pins its output.
func Example() {
	main()
	// Output:
	// stop-start vehicle (SSV)
	//   fuel 10.00s + starter 0.00s + battery 18.83s + emissions 0.10s = B 28.93s
	//   traffic statistics at this B: mu_B- = 6.8 s, q_B+ = 0.50
	//   optimal strategy: TOI, guaranteed CR <= 1.358
	//   realized CR on the commute: 1.358
	//
	// conventional vehicle
	//   fuel 10.00s + starter 19.38s + battery 18.83s + emissions 0.10s = B 48.31s
	//   traffic statistics at this B: mu_B- = 15.6 s, q_B+ = 0.25
	//   optimal strategy: DET, guaranteed CR <= 1.437
	//   realized CR on the commute: 1.437
	//
	// fuel price sensitivity (conventional vehicle):
	//   $2.50/gal -> B = 63.6 s
	//   $3.50/gal -> B = 48.3 s
	//   $4.50/gal -> B = 39.8 s
	//   $5.50/gal -> B = 34.4 s
	//
	// Higher fuel prices shrink B: wear costs amortize against costlier idling,
	// so shutting off pays for itself sooner.
}
