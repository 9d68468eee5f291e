//go:build race

package comm

func init() { raceBuild = true }
