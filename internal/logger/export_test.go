package logger

// NewUnpooled is New for a logger no earlier run has used: it bypasses
// the pool of released loggers, so tests can compare reused loggers
// against ones built from nothing.
func NewUnpooled(opts Options) *Logger {
	l := emptyLogger()
	l.reset(opts)
	return l
}
