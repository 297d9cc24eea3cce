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
