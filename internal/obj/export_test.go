package obj

// Magic is the wire format's leading magic, for the external tests.
var Magic = objMagic
