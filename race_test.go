//go:build race

package deflection_test

func init() { raceSlack = 16 }
