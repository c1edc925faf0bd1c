// Command tool is a program under internal: nothing imports a program, so
// it is no orphan.
package main

func main() {}
