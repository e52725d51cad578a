package fleet

import _ "embed"

// The operator dashboard is one self-contained HTML page, compiled
// into the head binary. No build step, no external assets, no CDN:
// everything it renders comes from the head's own JSON endpoints
// (/fleet/members, /fleet/timeseries, /fleet/services,
// /metrics via /fleet/* equivalents) and the SSE event stream, so the
// page works on an air-gapped host and cannot rot against a remote
// script. TestDashboardSelfContained pins the no-external-URLs
// property.

//go:embed dashboard.html
var dashboardHTML []byte
