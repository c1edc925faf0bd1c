// Command app is the fixture's one program; it reaches internal/used.
package main

import "orphanfix/internal/used"

func main() { used.Run() }
