package mgmt

import "repro/internal/crossbar"

// AttachSwitch lets the tests damage a running switch and watch the
// self-tests see it; the management console builds its own.

// AttachSwitch points the self-tests at a live switch instance so the
// BIST can observe runtime damage (failed receivers) that a freshly
// built switch would not show. Pass nil to detach.
func (m *Manager) AttachSwitch(sw *crossbar.Switch) { m.sw = sw }
