package a

type T struct{}

func (t *T) Ptr() {}

func (t T) Val() {}

type G[X any] struct{}

func (g *G[X]) M() { defer func() {}() }

func Gen[X, Y any]() {}
