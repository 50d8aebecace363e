package core

// SetUploadHost makes c remember host as its repository's upload endpoint,
// as if a put through c had learned it there.
func (c *Comms) SetUploadHost(host string) { c.upload.Store(&host) }
