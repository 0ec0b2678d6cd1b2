package fix

func testOnly() {}
