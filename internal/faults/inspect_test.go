package faults

// Active returns the names of enabled faults (order unspecified).
func (p *Plan) Active() []string {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []string
	for name, cfg := range p.configs {
		if cfg.Enabled {
			out = append(out, name)
		}
	}
	return out
}

// Reset zeroes the firing counters, keeping the configuration; used
// when one plan drives several runs.
func (p *Plan) Reset() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for k := range p.triggers {
		delete(p.triggers, k)
	}
}
