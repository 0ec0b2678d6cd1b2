package fix

func Used() { go func() {}() }

func Kept() {}

func dead() {}
