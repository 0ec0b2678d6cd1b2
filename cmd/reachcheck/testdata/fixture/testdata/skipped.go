package skipped

func Skipped() {}
