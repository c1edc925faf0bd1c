package helper

// Assert does nothing.
func Assert() {}
